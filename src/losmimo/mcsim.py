"""Symbol-level Monte Carlo oracle for the closed-form SINRs.

Simulates the actual transmission equations of either link with i.i.d.
circularly-symmetric unit-variance Gaussian symbols and noise. The
desired-signal coefficient of every user is deterministic and known, so the
empirical SINR is |coefficient|^2 divided by the sample variance of the
residual (received minus desired term) -- no blind estimation bias.

Second moments are accumulated in fixed-size chunks, so memory stays
O(L*K) regardless of the symbol count, and results depend only on the seed.
"""

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet
from .linproc import DOWNLINK, MR, ZF, PowerAllocation, gram_inverse, mr_precoder, zf_precoder

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


def simulate(
    channels: ChannelSet,
    scheme: str,
    alloc: PowerAllocation,
    rho: float,
    n_symbols: int,
    seed: int,
) -> SimResult:
    """Simulate the transmission equation of the allocation's link and
    measure per-user SINR; `rho` is that link's normalized SNR.

    Downlink: cell l transmits P_l s_l with its MR or ZF precoder P_l, and
    each user receives every cell's signal plus unit noise. Uplink: each user
    transmits sqrt(eta) s, and base station l decodes its antennas' signals
    plus unit noise with A_l (G^H for MR, Gram^-1 G^H for ZF).
    """
    if n_symbols < 1:
        raise ValueError("n_symbols must be >= 1")
    if scheme not in (MR, ZF):
        raise ValueError(f"unknown scheme {scheme!r}")
    cells, users = channels.cell_count, channels.users_per_cell
    root_rho = np.sqrt(rho)

    # eff[l][lp] maps cell-lp symbols to cell-l users' received samples.
    # decoders[l] maps base station l's antenna noise to them; on the
    # downlink (None) the users' noise is received as drawn.
    if alloc.link == DOWNLINK:
        precode = mr_precoder if scheme == MR else zf_precoder
        precoders = [precode(channels.serving(l), alloc.eta[l]).matrix for l in range(cells)]
        eff = [
            [root_rho * channels.matrices[lp, l].T @ precoders[lp] for lp in range(cells)]
            for l in range(cells)
        ]
        decoders = None
        noise_dim = users
        tx = _Moments((cells,))

        def transmitted(symbols):  # ||P_l s_l||^2 per cell
            return np.stack(
                [np.sum(np.abs(precoders[l] @ symbols[l]) ** 2, axis=0) for l in range(cells)]
            )
    else:
        serving = [channels.serving(l) for l in range(cells)]
        if scheme == MR:
            decoders = [g.conj().T for g in serving]
        else:
            decoders = [gram_inverse(g) @ g.conj().T for g in serving]
        root_eta = np.sqrt(alloc.eta)  # (L, K), applied at the transmitters
        eff = [
            [
                root_rho * (decoders[l] @ channels.matrices[l, lp]) * root_eta[lp][None, :]
                for lp in range(cells)
            ]
            for l in range(cells)
        ]
        noise_dim = channels.antenna_count
        tx = _Moments((cells, users))

        def transmitted(symbols):  # |sqrt(eta) s|^2 per user
            return np.abs(root_eta[:, :, None] * symbols) ** 2

    coef = np.stack([np.real(np.diag(eff[l][l])) for l in range(cells)])  # (L, K)
    residual, sig, intf, noise, total = (_Moments((cells, users)) for _ in range(5))
    recon_num = 0.0
    recon_den = 0.0

    rng = np.random.default_rng(seed)
    for nc in _chunks(n_symbols, channels.antenna_count * cells):
        symbols = _complex_normal(rng, (cells, users, nc))
        w = _complex_normal(rng, (cells, noise_dim, nc))
        tx.add(transmitted(symbols))
        for l in range(cells):
            noisefree = sum(eff[l][lp] @ symbols[lp] for lp in range(cells))
            desired = coef[l][:, None] * symbols[l]
            interference = noisefree - desired
            received_noise = w[l] if decoders is None else decoders[l] @ w[l]
            received = noisefree + received_noise
            res = received - desired
            residual.add(np.abs(res) ** 2, row=l)
            sig.add(np.abs(desired) ** 2, row=l)
            intf.add(np.abs(interference) ** 2, row=l)
            noise.add(np.abs(received_noise) ** 2, row=l)
            total.add(np.abs(received) ** 2, row=l)
            diff = desired + interference + received_noise - received
            recon_num += float(np.sum(np.abs(diff) ** 2))
            recon_den += float(np.sum(np.abs(received) ** 2))
        for m in (residual, sig, intf, noise, total):
            m.bump(nc)

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
        link=alloc.link,
    )
