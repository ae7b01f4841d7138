"""Symbol-level Monte Carlo oracle for the closed-form SINRs.

Simulates the actual transmission equations of either link with i.i.d.
circularly-symmetric unit-variance Gaussian symbols and noise. The
desired-signal coefficient of every user is deterministic and known, so the
empirical SINR is |coefficient|^2 divided by the mean power of the
impairment (received samples minus the desired term: interference plus
noise) -- no blind estimation bias.

Only noise that reaches the users is drawn, r samples per cell and symbol.
On the downlink r = K: each user's receiver noise, received as drawn. On the
uplink r = min(M, K): base station l decodes its M antennas' noise w with
A_l, whose rows lie in the range of the serving matrix G_l, so
A_l = (A_l Q_l) Q_l^H for the thin-QR basis Q_l (M x r) of G_l, and A_l w has
the law of (A_l Q_l) v with v ~ CN(0, I_r) (`noise_factor`). The factor is
taken from the decoder being simulated, not from the closed-form algebra,
so the oracle stays independent of it.

Symbols are processed in chunks of about _CHUNK_BUDGET / (L K) symbols
(585 at L=7, K=8), so each (L, K, chunk) complex array takes 512 KiB. A
chunk holds its symbols, its noise draws and its impairment, one temporary
at a time, and, while the next chunk is drawn, the last one's arrays: about
five such arrays at the peak, whatever M and the symbol count. Results
depend only on the seed.
"""

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet
from .linproc import DOWNLINK, PowerAllocation, decoder, precoder

_CHUNK_BUDGET = 1 << 15  # complex entries per (L, K, chunk) array


@dataclass(frozen=True)
class SimResult:
    sinr: np.ndarray  # (L, K) empirical, linear
    sinr_stderr: np.ndarray  # (L, K) standard error of the empirical SINR
    interference_noise_power: np.ndarray  # (L, K) mean |received - desired term|^2


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

    Downlink: cell l transmits P_l s_l with its MR or ZF `precoder` P_l, and
    each user receives every cell's signal plus unit noise. Uplink: each user
    transmits sqrt(eta) s, and base station l decodes its antennas' signals
    plus unit noise with its `decoder` A_l (G^H for MR, Gram^-1 G^H for ZF).
    """
    if n_symbols < 1:
        raise ValueError("n_symbols must be >= 1")
    cells, users = channels.cell_count, channels.users_per_cell
    if alloc.eta.shape != (cells, users):
        raise ValueError(f"allocation shape {alloc.eta.shape} != (L, K) {(cells, users)}")
    root_rho = np.sqrt(rho)
    serving = [channels.serving(l) for l in range(cells)]

    # eff[l, lp] maps cell-lp symbols to cell-l users' received samples.
    # noise_map[l] maps the r noise draws of cell l to them; on the
    # downlink (None) the users' noise is received as drawn.
    if alloc.link == DOWNLINK:
        precoders = np.stack([precoder(g, scheme, e) for g, e in zip(serving, alloc.eta)])
        eff = root_rho * (channels.matrices.transpose(1, 0, 3, 2) @ precoders)
        noise_map = None
    else:
        decoders = [decoder(g, scheme) for g in serving]
        # sqrt(eta) is applied at the transmitters, column (lp, k') of eff
        eff = np.stack([decoders[l] @ channels.matrices[l] for l in range(cells)])
        eff *= root_rho * np.sqrt(alloc.eta)[None, :, None, :]
        noise_map = np.stack([noise_factor(a, g) for a, g in zip(decoders, serving)])

    n = cells * users
    mix = eff.transpose(0, 2, 1, 3).reshape(n, n)  # row (l, k), column (lp, k')
    coef = np.real(np.diagonal(mix)).reshape(cells, users)
    noise_dim = users if noise_map is None else noise_map.shape[-1]
    impairment = _Moments((cells, users))

    rng = np.random.default_rng(seed)
    for nc in _chunks(n_symbols, n):
        symbols = _complex_normal(rng, (cells, users, nc))
        w = _complex_normal(rng, (cells, noise_dim, nc))
        # received samples minus the desired term, built in place
        received = (mix @ symbols.reshape(n, nc)).reshape(cells, users, nc)
        received += w if noise_map is None else noise_map @ w
        received -= coef[:, :, None] * symbols
        impairment.add(np.abs(received) ** 2)

    p_in = impairment.mean()
    power = coef**2
    with np.errstate(divide="ignore", invalid="ignore"):
        sinr = np.where(p_in > 0, power / p_in, np.inf)
        stderr = np.where(p_in > 0, power * impairment.stderr() / p_in**2, 0.0)
    return SimResult(sinr=sinr, sinr_stderr=stderr, interference_noise_power=p_in)
