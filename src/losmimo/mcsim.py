"""Symbol-level Monte Carlo oracle for the closed-form SINRs.

Simulates the actual transmission equations of either link with i.i.d.
circularly-symmetric unit-variance Gaussian symbols and noise. The
desired-signal coefficient of every user is deterministic and known, so the
empirical SINR is |coefficient|^2 divided by the sample variance of the
residual (received minus desired term) -- no blind estimation bias.

Only noise that reaches the users is drawn, r samples per cell and symbol.
On the downlink r = K: each user's receiver noise, received as drawn. On the
uplink r = min(M, K): base station l decodes its M antennas' noise w with
A_l, whose rows lie in the range of the serving matrix G_l, so
A_l = (A_l Q_l) Q_l^H for the thin-QR basis Q_l (M x r) of G_l, and A_l w has
the law of (A_l Q_l) v with v ~ CN(0, I_r) (`noise_factor`). The factor is
taken from the decoder being simulated, not from the closed-form algebra,
so the oracle stays independent of it.

Symbols are processed in chunks of about _CHUNK_BUDGET / (L K) symbols
(585 at L=7, K=8), so each (L, K, chunk) complex array takes 512 KiB and a
chunk's working set is about a dozen of them, whatever M and the symbol
count. Results depend only on the seed.
"""

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet
from .linproc import DOWNLINK, MR, ZF, PowerAllocation, gram_inverse, mr_precoder, zf_precoder

_CHUNK_BUDGET = 1 << 15  # complex entries per (L, K, chunk) array


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
    link: str


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """CN(0, 1) samples, real and imaginary parts drawn interleaved in one call."""
    parts = rng.standard_normal((*shape, 2))
    parts *= np.sqrt(0.5)
    return parts.view(np.complex128)[..., 0]


def noise_factor(decoder: np.ndarray, serving: np.ndarray) -> np.ndarray:
    """(K, r) factor B = A Q of a decoder A (K x M) whose rows lie in the
    range of the serving matrix G (M x K), Q the thin-QR basis of G and
    r = min(M, K): A w with w ~ CN(0, I_M) has the law of B v, v ~ CN(0, I_r)."""
    return decoder @ np.linalg.qr(serving)[0]


class _Moments:
    """Streaming first/second moments of a nonnegative per-sample statistic."""

    def __init__(self, shape):
        self.s1 = np.zeros(shape)
        self.s2 = np.zeros(shape)
        self.n = 0

    def add(self, values: np.ndarray) -> None:
        # values: (*shape, n_chunk)
        self.s1 += np.sum(values, axis=-1)
        self.s2 += np.sum(values**2, axis=-1)
        self.n += values.shape[-1]

    def mean(self) -> np.ndarray:
        return self.s1 / self.n

    def stderr(self) -> np.ndarray:
        var = np.clip(self.s2 / self.n - self.mean() ** 2, 0.0, None)
        return np.sqrt(var / self.n)


def _chunks(n_symbols: int, per_symbol: int):
    chunk = max(1, min(n_symbols, _CHUNK_BUDGET // max(per_symbol, 1)))
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

    # eff[l, lp] maps cell-lp symbols to cell-l users' received samples.
    # noise_map[l] maps the r noise draws of cell l to them; on the
    # downlink (None) the users' noise is received as drawn.
    if alloc.link == DOWNLINK:
        precode = mr_precoder if scheme == MR else zf_precoder
        precoders = np.stack(
            [precode(channels.serving(l), alloc.eta[l]) for l in range(cells)]
        )  # (L, M, K)
        eff = root_rho * (channels.matrices.transpose(1, 0, 3, 2) @ precoders)
        noise_map = None
        # R_l^H R_l = P_l^H P_l, the precoder Gram, for the QR factor R_l of P_l
        tx_factor = np.linalg.qr(precoders, mode="r")
        tx = _Moments((cells,))

        def transmitted(symbols):  # ||P_l s_l||^2 = s_l^H (P_l^H P_l) s_l per cell
            return np.sum(np.abs(tx_factor @ symbols) ** 2, axis=1)
    else:
        serving = [channels.serving(l) for l in range(cells)]
        if scheme == MR:
            decoders = [g.conj().T for g in serving]
        else:
            decoders = [gram_inverse(g.conj().T @ g, len(g)) @ g.conj().T for g in serving]
        # sqrt(eta) is applied at the transmitters, column (lp, k') of eff
        eff = np.stack([decoders[l] @ channels.matrices[l] for l in range(cells)])
        eff *= root_rho * np.sqrt(alloc.eta)[None, :, None, :]
        noise_map = np.stack([noise_factor(a, g) for a, g in zip(decoders, serving)])
        tx = _Moments((cells, users))

        def transmitted(symbols):  # |sqrt(eta) s|^2 per user
            return alloc.eta[:, :, None] * np.abs(symbols) ** 2

    n = cells * users
    mix = eff.transpose(0, 2, 1, 3).reshape(n, n)  # row (l, k), column (lp, k')
    coef = np.real(np.diagonal(mix)).reshape(cells, users)
    noise_dim = users if noise_map is None else noise_map.shape[-1]
    residual, sig, intf, noise, total = (_Moments((cells, users)) for _ in range(5))
    recon_num = 0.0

    rng = np.random.default_rng(seed)
    for nc in _chunks(n_symbols, n):
        symbols = _complex_normal(rng, (cells, users, nc))
        w = _complex_normal(rng, (cells, noise_dim, nc))
        tx.add(transmitted(symbols))
        noisefree = (mix @ symbols.reshape(n, nc)).reshape(cells, users, nc)
        desired = coef[:, :, None] * symbols
        interference = noisefree - desired
        received_noise = w if noise_map is None else noise_map @ w
        received = noisefree + received_noise
        residual.add(np.abs(received - desired) ** 2)
        sig.add(np.abs(desired) ** 2)
        intf.add(np.abs(interference) ** 2)
        noise.add(np.abs(received_noise) ** 2)
        total.add(np.abs(received) ** 2)
        diff = desired + interference + received_noise - received
        recon_num += float(np.sum(np.abs(diff) ** 2))

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
        recon_residual=recon_num / max(float(np.sum(total.s1)), 1e-300),
        tx_power=tx.mean(),
        tx_power_stderr=tx.stderr(),
        link=alloc.link,
    )
