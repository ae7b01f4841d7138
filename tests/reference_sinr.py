"""Independent reference derivation of the four closed-form SINRs.

Per-cell loops straight from the SINR expressions, kept apart from the
package's (D, C) construction (`losmimo.powerctl.build_pc_system` and
`PcSystem.sinr`) so tests can compare the two derivations. Each takes the
(L, K) powers eta of its link as a plain array.
"""

from dataclasses import dataclass

import numpy as np

from losmimo.linproc import DOWNLINK, MR, UPLINK, ZF, gram_inverse
from losmimo.powerctl import PcSystem


def _gram_inverse(serving: np.ndarray) -> np.ndarray:
    return gram_inverse(serving.conj().T @ serving)


@dataclass(frozen=True)
class SinrReport:
    values: np.ndarray  # (L, K), linear scale
    scheme: str
    link: str


def mr_dl_sinr(channels: np.ndarray, eta: np.ndarray, rho_d: float) -> SinrReport:
    """Per-user MR downlink SINR over the (L, L, M, K) channels."""
    cells = len(channels)
    norms2 = np.stack(
        [np.linalg.norm(channels[l, l], axis=0) ** 2 for l in range(cells)]
    )  # (L, K)
    values = np.empty_like(eta)
    for l in range(cells):
        num = rho_d * eta[l] * norms2[l]
        denom = np.ones(channels.shape[3])
        for lp in range(cells):
            # cross[k, k'] = <g from (l,k) to BS lp, g from (lp,k') to BS lp>
            cross = channels[lp, l].conj().T @ channels[lp, lp]
            contrib = (np.abs(cross) ** 2 / norms2[lp][None, :]) @ eta[lp]
            if lp == l:
                contrib -= eta[l] * norms2[l]  # remove the k'=k self term
            denom += rho_d * contrib
        values[l] = num / denom
    return SinrReport(values=values, scheme=MR, link=DOWNLINK)


def mr_ul_sinr(channels: np.ndarray, eta: np.ndarray, rho_u: float) -> SinrReport:
    """Per-user MR uplink SINR; cross channels are other-cell users seen at
    the serving base station."""
    cells = len(channels)
    values = np.empty_like(eta)
    for l in range(cells):
        own = channels[l, l]
        norms2 = np.linalg.norm(own, axis=0) ** 2
        interf = np.zeros(channels.shape[3])
        for lp in range(cells):
            cross = own.conj().T @ channels[l, lp]
            contrib = (np.abs(cross) ** 2) @ eta[lp]
            if lp == l:
                contrib -= eta[l] * norms2**2
            interf += contrib
        values[l] = rho_u * eta[l] * norms2 / (1.0 + rho_u * interf / norms2)
    return SinrReport(values=values, scheme=MR, link=UPLINK)


def zf_dl_sinr(channels: np.ndarray, eta: np.ndarray, rho_d: float) -> SinrReport:
    """Per-user ZF downlink SINR; intra-cell interference is nulled, other
    cells leak through their own ZF precoders."""
    cells = len(channels)
    igrams = [_gram_inverse(channels[l, l]) for l in range(cells)]
    dinv = np.stack([np.real(np.diag(ig)) for ig in igrams])  # (L, K)
    values = np.empty_like(eta)
    for l in range(cells):
        op = np.zeros(channels.shape[3])
        for lp in range(cells):
            if lp == l:
                continue
            # rows k: (g from (l,k) to BS lp)^H G_lp (G_lp^H G_lp)^-1
            leak = channels[lp, l].conj().T @ channels[lp, lp] @ igrams[lp]
            op += (np.abs(leak) ** 2 / dinv[lp][None, :]) @ eta[lp]
        values[l] = rho_d * eta[l] / ((1.0 + rho_d * op) * dinv[l])
    return SinrReport(values=values, scheme=ZF, link=DOWNLINK)


def zf_ul_sinr(channels: np.ndarray, eta: np.ndarray, rho_u: float) -> SinrReport:
    """Per-user ZF uplink SINR with decoded other-cell leakage B-matrices."""
    cells = len(channels)
    values = np.empty_like(eta)
    for l in range(cells):
        igram = _gram_inverse(channels[l, l])
        dinv = np.real(np.diag(igram))
        decode = igram @ channels[l, l].conj().T  # (K, M)
        op = np.zeros(channels.shape[3])
        for lp in range(cells):
            if lp == l:
                continue
            b = decode @ channels[l, lp]
            op += (np.abs(b) ** 2) @ eta[lp]
        values[l] = rho_u * eta[l] / (dinv + rho_u * op)
    return SinrReport(values=values, scheme=ZF, link=UPLINK)


_SINR_FUNCS = {
    (MR, DOWNLINK): mr_dl_sinr,
    (MR, UPLINK): mr_ul_sinr,
    (ZF, DOWNLINK): zf_dl_sinr,
    (ZF, UPLINK): zf_ul_sinr,
}


def evaluate_sinr(
    channels: np.ndarray, scheme: str, link: str, eta: np.ndarray, rho: float
) -> SinrReport:
    """Dispatch the (L, K) powers `eta` to the closed form for (scheme, link)."""
    try:
        func = _SINR_FUNCS[(scheme, link)]
    except KeyError:
        raise ValueError(f"unknown scheme/link combination ({scheme}, {link})") from None
    return func(channels, np.asarray(eta, dtype=float), rho)


def evaluate_allocation(
    channels: np.ndarray, system: PcSystem, eta: np.ndarray, rho: float
) -> np.ndarray:
    """Closed-form SINRs (flat, cell-major) of solved powers `eta` at SNR `rho`."""
    eta = eta.reshape(system.cells, system.users_per_cell)
    report = evaluate_sinr(channels, system.scheme, system.link, eta, rho)
    return report.values.ravel()
