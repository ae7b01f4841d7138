"""Independent reference derivation of the four closed-form SINRs.

Per-cell loops straight from the SINR expressions, kept apart from the
package's (D, C) construction (`losmimo.powerctl.build_pc_system` and
`PcSystem.sinr`) so tests can compare the two derivations.
"""

from dataclasses import dataclass

import numpy as np

from losmimo import ChannelSet
from losmimo.linproc import (
    DOWNLINK,
    MR,
    UPLINK,
    ZF,
    PowerAllocation,
    gram_inverse,
)
from losmimo.powerctl import PcSolution, PcSystem


def _gram_inverse(serving: np.ndarray) -> np.ndarray:
    return gram_inverse(serving.conj().T @ serving, serving.shape[0])


def _check_link(alloc: PowerAllocation, link: str) -> None:
    if alloc.link != link:
        raise ValueError(f"{link} SINR needs a {link} allocation, got {alloc.link}")


@dataclass(frozen=True)
class SinrReport:
    values: np.ndarray  # (L, K), linear scale
    scheme: str
    link: str


def mr_dl_sinr(channels: ChannelSet, alloc: PowerAllocation, rho_d: float) -> SinrReport:
    """Per-user MR downlink SINR over the full channel set."""
    _check_link(alloc, DOWNLINK)
    cells = channels.cell_count
    norms2 = np.stack(
        [np.linalg.norm(channels.serving(l), axis=0) ** 2 for l in range(cells)]
    )  # (L, K)
    values = np.empty_like(alloc.eta)
    for l in range(cells):
        num = rho_d * alloc.eta[l] * norms2[l]
        denom = np.ones(channels.users_per_cell)
        for lp in range(cells):
            # cross[k, k'] = <g from (l,k) to BS lp, g from (lp,k') to BS lp>
            cross = channels.matrices[lp, l].conj().T @ channels.matrices[lp, lp]
            contrib = (np.abs(cross) ** 2 / norms2[lp][None, :]) @ alloc.eta[lp]
            if lp == l:
                contrib -= alloc.eta[l] * norms2[l]  # remove the k'=k self term
            denom += rho_d * contrib
        values[l] = num / denom
    return SinrReport(values=values, scheme=MR, link=DOWNLINK)


def mr_ul_sinr(channels: ChannelSet, alloc: PowerAllocation, rho_u: float) -> SinrReport:
    """Per-user MR uplink SINR; cross channels are other-cell users seen at
    the serving base station."""
    _check_link(alloc, UPLINK)
    cells = channels.cell_count
    values = np.empty_like(alloc.eta)
    for l in range(cells):
        own = channels.serving(l)
        norms2 = np.linalg.norm(own, axis=0) ** 2
        interf = np.zeros(channels.users_per_cell)
        for lp in range(cells):
            cross = own.conj().T @ channels.matrices[l, lp]
            contrib = (np.abs(cross) ** 2) @ alloc.eta[lp]
            if lp == l:
                contrib -= alloc.eta[l] * norms2**2
            interf += contrib
        values[l] = rho_u * alloc.eta[l] * norms2 / (1.0 + rho_u * interf / norms2)
    return SinrReport(values=values, scheme=MR, link=UPLINK)


def zf_dl_sinr(channels: ChannelSet, alloc: PowerAllocation, rho_d: float) -> SinrReport:
    """Per-user ZF downlink SINR; intra-cell interference is nulled, other
    cells leak through their own ZF precoders."""
    _check_link(alloc, DOWNLINK)
    cells = channels.cell_count
    igrams = [_gram_inverse(channels.serving(l)) for l in range(cells)]
    dinv = np.stack([np.real(np.diag(ig)) for ig in igrams])  # (L, K)
    values = np.empty_like(alloc.eta)
    for l in range(cells):
        op = np.zeros(channels.users_per_cell)
        for lp in range(cells):
            if lp == l:
                continue
            # rows k: (g from (l,k) to BS lp)^H G_lp (G_lp^H G_lp)^-1
            leak = channels.matrices[lp, l].conj().T @ channels.matrices[lp, lp] @ igrams[lp]
            op += (np.abs(leak) ** 2 / dinv[lp][None, :]) @ alloc.eta[lp]
        values[l] = rho_d * alloc.eta[l] / ((1.0 + rho_d * op) * dinv[l])
    return SinrReport(values=values, scheme=ZF, link=DOWNLINK)


def zf_ul_sinr(channels: ChannelSet, alloc: PowerAllocation, rho_u: float) -> SinrReport:
    """Per-user ZF uplink SINR with decoded other-cell leakage B-matrices."""
    _check_link(alloc, UPLINK)
    cells = channels.cell_count
    values = np.empty_like(alloc.eta)
    for l in range(cells):
        igram = _gram_inverse(channels.serving(l))
        dinv = np.real(np.diag(igram))
        decode = igram @ channels.serving(l).conj().T  # (K, M)
        op = np.zeros(channels.users_per_cell)
        for lp in range(cells):
            if lp == l:
                continue
            b = decode @ channels.matrices[l, lp]
            op += (np.abs(b) ** 2) @ alloc.eta[lp]
        values[l] = rho_u * alloc.eta[l] / (dinv + rho_u * op)
    return SinrReport(values=values, scheme=ZF, link=UPLINK)


_SINR_FUNCS = {
    (MR, DOWNLINK): mr_dl_sinr,
    (MR, UPLINK): mr_ul_sinr,
    (ZF, DOWNLINK): zf_dl_sinr,
    (ZF, UPLINK): zf_ul_sinr,
}


def evaluate_sinr(
    channels: ChannelSet, scheme: str, link: str, alloc: PowerAllocation, rho: float
) -> SinrReport:
    """Dispatch to the closed form for (scheme, link)."""
    try:
        func = _SINR_FUNCS[(scheme, link)]
    except KeyError:
        raise ValueError(f"unknown scheme/link combination ({scheme}, {link})") from None
    return func(channels, alloc, rho)


def evaluate_allocation(
    channels: ChannelSet, system: PcSystem, solution: PcSolution
) -> np.ndarray:
    """Closed-form SINRs (flat, cell-major) for a solved allocation."""
    alloc = PowerAllocation(
        eta=solution.eta.reshape(system.cells, system.users_per_cell), link=system.link
    )
    report = evaluate_sinr(channels, system.scheme, system.link, alloc, system.rho)
    return report.values.ravel()
