"""Symbol-level Monte Carlo oracle for the closed-form SINRs.

Simulates the actual transmission equations with i.i.d. circularly-symmetric
unit-variance Gaussian symbols and noise. The desired-signal coefficient of
every user is deterministic and known, so the empirical SINR is
|coefficient|^2 divided by the sample variance of the residual
(received minus desired term) -- no blind estimation bias.

Second moments are accumulated in fixed-size chunks, so memory stays
O(L*K) regardless of the symbol count, and results depend only on the seed.
"""

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet
from .linproc import (
    DOWNLINK,
    MR,
    UPLINK,
    ZF,
    PowerAllocation,
    _check_kind,
    gram_inverse,
    mr_precoder,
    zf_precoder,
)

_CHUNK_BUDGET = 1 << 22  # complex entries per chunk of the largest array


@dataclass(frozen=True)
class SimResult:
    sinr: np.ndarray  # (L, K) empirical, linear
    sinr_stderr: np.ndarray  # (L, K) standard error of the empirical SINR
    signal_power: np.ndarray  # (L, K)
    interference_power: np.ndarray  # (L, K)
    noise_power: np.ndarray  # (L, K)
    total_power: np.ndarray  # (L, K) mean |received|^2
    recon_residual: float  # relative power of (signal+interf+noise - received)
    tx_power: np.ndarray  # DL: (L,) mean ||s_l||^2; UL: (L, K) mean per-user power
    tx_power_stderr: np.ndarray
    n_symbols: int
    seed: int
    scheme: str
    link: str


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


class _Moments:
    """Streaming first/second moments of a nonnegative per-sample statistic."""

    def __init__(self, shape):
        self.s1 = np.zeros(shape)
        self.s2 = np.zeros(shape)
        self.n = 0

    def add(self, values: np.ndarray, row=None) -> None:
        # values: (..., n_chunk); `row` selects one leading index to update
        if row is None:
            self.s1 += np.sum(values, axis=-1)
            self.s2 += np.sum(values**2, axis=-1)
            self.n += values.shape[-1]
        else:
            self.s1[row] += np.sum(values, axis=-1)
            self.s2[row] += np.sum(values**2, axis=-1)

    def bump(self, n_chunk: int) -> None:
        self.n += n_chunk

    def mean(self) -> np.ndarray:
        return self.s1 / self.n

    def stderr(self) -> np.ndarray:
        var = np.clip(self.s2 / self.n - self.mean() ** 2, 0.0, None)
        return np.sqrt(var / self.n)


def _chunks(n_symbols: int, largest_dim: int):
    chunk = max(1, min(n_symbols, _CHUNK_BUDGET // max(largest_dim, 1)))
    done = 0
    while done < n_symbols:
        yield min(chunk, n_symbols - done)
        done += chunk


def simulate_dl(
    channels: ChannelSet,
    scheme: str,
    alloc: PowerAllocation,
    rho_d: float,
    n_symbols: int,
    seed: int,
) -> SimResult:
    """Simulate the downlink transmission equation and measure per-user SINR."""
    _check_kind(alloc, DOWNLINK)
    if n_symbols < 1:
        raise ValueError("n_symbols must be >= 1")
    cells, users = channels.cell_count, channels.users_per_cell

    if scheme == MR:
        precoders = [mr_precoder(channels.serving(l), alloc.eta[l]) for l in range(cells)]
    elif scheme == ZF:
        precoders = [zf_precoder(channels.serving(l), alloc.eta[l]) for l in range(cells)]
    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    # eff[l][lp] maps cell-lp symbols to cell-l users' received samples.
    root_rho = np.sqrt(rho_d)
    eff = [
        [root_rho * channels.matrices[lp, l].T @ precoders[lp].matrix for lp in range(cells)]
        for l in range(cells)
    ]
    coef = np.stack([np.real(np.diag(eff[l][l])) for l in range(cells)])  # (L, K)

    residual = _Moments((cells, users))
    sig = _Moments((cells, users))
    intf = _Moments((cells, users))
    noise = _Moments((cells, users))
    total = _Moments((cells, users))
    tx = _Moments((cells,))
    recon_num = 0.0
    recon_den = 0.0

    rng = np.random.default_rng(seed)
    for nc in _chunks(n_symbols, channels.antenna_count * cells):
        symbols = _complex_normal(rng, (cells, users, nc))
        w = _complex_normal(rng, (cells, users, nc))
        tx.add(
            np.stack(
                [
                    np.sum(np.abs(precoders[l].matrix @ symbols[l]) ** 2, axis=0)
                    for l in range(cells)
                ]
            )
        )
        for l in range(cells):
            noisefree = sum(eff[l][lp] @ symbols[lp] for lp in range(cells))
            desired = coef[l][:, None] * symbols[l]
            interference = noisefree - desired
            received = noisefree + w[l]
            res = received - desired
            residual.add(np.abs(res) ** 2, row=l)
            sig.add(np.abs(desired) ** 2, row=l)
            intf.add(np.abs(interference) ** 2, row=l)
            noise.add(np.abs(w[l]) ** 2, row=l)
            total.add(np.abs(received) ** 2, row=l)
            diff = desired + interference + w[l] - received
            recon_num += float(np.sum(np.abs(diff) ** 2))
            recon_den += float(np.sum(np.abs(received) ** 2))
        for m in (residual, sig, intf, noise, total):
            m.bump(nc)

    return _finalize(
        coef, residual, sig, intf, noise, total, tx,
        recon_num, recon_den, n_symbols, seed, scheme, DOWNLINK,
    )


def simulate_ul(
    channels: ChannelSet,
    scheme: str,
    alloc: PowerAllocation,
    rho_u: float,
    n_symbols: int,
    seed: int,
) -> SimResult:
    """Simulate the uplink transmission equation, decode, and measure SINR."""
    _check_kind(alloc, UPLINK)
    if n_symbols < 1:
        raise ValueError("n_symbols must be >= 1")
    cells, users = channels.cell_count, channels.users_per_cell

    if scheme == MR:
        decoders = [channels.serving(l).conj().T for l in range(cells)]
    elif scheme == ZF:
        decoders = [
            gram_inverse(channels.serving(l)) @ channels.serving(l).conj().T
            for l in range(cells)
        ]
    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    root_eta = np.sqrt(alloc.eta)  # (L, K), applied at the transmitters
    root_rho = np.sqrt(rho_u)
    eff = [
        [
            root_rho * (decoders[l] @ channels.matrices[l, lp]) * root_eta[lp][None, :]
            for lp in range(cells)
        ]
        for l in range(cells)
    ]
    coef = np.stack([np.real(np.diag(eff[l][l])) for l in range(cells)])

    residual = _Moments((cells, users))
    sig = _Moments((cells, users))
    intf = _Moments((cells, users))
    noise = _Moments((cells, users))
    total = _Moments((cells, users))
    tx = _Moments((cells, users))
    recon_num = 0.0
    recon_den = 0.0

    rng = np.random.default_rng(seed)
    for nc in _chunks(n_symbols, channels.antenna_count * cells):
        symbols = _complex_normal(rng, (cells, users, nc))
        w = _complex_normal(rng, (cells, channels.antenna_count, nc))
        tx.add(np.abs(root_eta[:, :, None] * symbols) ** 2)
        for l in range(cells):
            noisefree = sum(eff[l][lp] @ symbols[lp] for lp in range(cells))
            desired = coef[l][:, None] * symbols[l]
            interference = noisefree - desired
            decoded_noise = decoders[l] @ w[l]
            received = noisefree + decoded_noise
            res = received - desired
            residual.add(np.abs(res) ** 2, row=l)
            sig.add(np.abs(desired) ** 2, row=l)
            intf.add(np.abs(interference) ** 2, row=l)
            noise.add(np.abs(decoded_noise) ** 2, row=l)
            total.add(np.abs(received) ** 2, row=l)
            diff = desired + interference + decoded_noise - received
            recon_num += float(np.sum(np.abs(diff) ** 2))
            recon_den += float(np.sum(np.abs(received) ** 2))
        for m in (residual, sig, intf, noise, total):
            m.bump(nc)

    return _finalize(
        coef, residual, sig, intf, noise, total, tx,
        recon_num, recon_den, n_symbols, seed, scheme, UPLINK,
    )


def _finalize(
    coef, residual, sig, intf, noise, total, tx,
    recon_num, recon_den, n_symbols, seed, scheme, link,
) -> SimResult:
    p_in = residual.mean()
    power = coef**2
    with np.errstate(divide="ignore", invalid="ignore"):
        sinr = np.where(p_in > 0, power / p_in, np.inf)
        stderr = np.where(p_in > 0, power * residual.stderr() / p_in**2, 0.0)
    return SimResult(
        sinr=sinr,
        sinr_stderr=stderr,
        signal_power=sig.mean(),
        interference_power=intf.mean(),
        noise_power=noise.mean(),
        total_power=total.mean(),
        recon_residual=recon_num / max(recon_den, 1e-300),
        tx_power=tx.mean(),
        tx_power_stderr=tx.stderr(),
        n_symbols=n_symbols,
        seed=int(seed),
        scheme=scheme,
        link=link,
    )
