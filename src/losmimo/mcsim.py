"""Symbol-level Monte Carlo oracle for the closed-form SINRs.

Simulates the actual transmission equations of either link with i.i.d.
circularly-symmetric unit-variance Gaussian symbols and noise. The
desired-signal coefficient of every user is deterministic and known, so the
empirical SINR is |coefficient|^2 divided by the mean power of the
impairment (received samples minus the desired term: interference plus
noise) -- no blind estimation bias.

One call simulates a batch of checks, each a (scheme, link, eta, rho) with
eta the (L, K) powers as a plain array, on one stream of symbols and noise:
each chunk is drawn once and every check reads it. A check thus sees exactly
the draws a batch of its own with the same seed would see, and stays
statistically identical to it.

Only noise that reaches the users is drawn, K samples per cell and symbol,
of which a check reads r. On the downlink r = K: each user's receiver noise,
received as drawn. On the uplink r = min(M, K), the first r rows: base
station l decodes its M antennas' noise w with A_l, whose rows lie in the
range of the serving matrix G_l, so A_l = (A_l Q_l) Q_l^H for the thin-QR
basis Q_l (M x r) of G_l, and A_l w has the law of (A_l Q_l) v with
v ~ CN(0, I_r) (`noise_factor`). The factor is taken from the decoder being
simulated, not from the closed-form algebra, so the oracle stays independent
of it.

Symbols are processed in chunks of about _CHUNK_BUDGET / (L K) symbols
(585 at L=7, K=8), so each (L, K, chunk) complex array takes 512 KiB. A
chunk's symbols and noise are drawn in one call into one of two alternating
draw buffers. Where the station pool exists (`channel.WORKERS` > 1), it
draws chunk i + 1 into the other buffer while the calling thread runs chunk
i's checks; the draws come from one generator in one order either way, so
results depend only on the seed, not on the worker count. The checks take
turns in reused work buffers: the received samples, one term, and the
per-sample powers with their squares. That is seven such arrays at the
peak (four of draws, three of work), made once a call whatever M, the
symbol count and the number of checks; a shorter last chunk takes a prefix
of each.
"""

from collections.abc import Sequence
from concurrent.futures import wait
from dataclasses import dataclass

import numpy as np

from . import channel
from .linproc import DOWNLINK, NORM_SLACK, UPLINK, decoder, per_cell_norms, precoder

_CHUNK_BUDGET = 1 << 15  # complex entries per (L, K, chunk) array


@dataclass(frozen=True)
class SimResult:
    sinr: np.ndarray  # (L, K) empirical, linear
    sinr_stderr: np.ndarray  # (L, K) standard error of the empirical SINR
    interference_noise_power: np.ndarray  # (L, K) mean |received - desired term|^2


def _complex_normal(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill the contiguous complex array `out` with CN(0, 1) samples, real
    and imaginary parts drawn interleaved in one call."""
    parts = out.view(np.float64)
    rng.standard_normal(out=parts)
    parts *= np.sqrt(0.5)
    return out


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

    def add(self, values: np.ndarray, squares: np.ndarray) -> None:
        # values: (*shape, n_chunk); squares: a buffer of that shape, overwritten
        self.s1 += np.sum(values, axis=-1)
        self.s2 += np.sum(np.square(values, out=squares), axis=-1)
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


def _setup(channels: np.ndarray, scheme: str, link: str, eta: np.ndarray, rho: float):
    """Validate one check and return its (mix, coef, noise_map); its
    precoders or decoders are freed on return, before the first draw."""
    cells, users = channels.shape[0], channels.shape[3]
    eta = np.asarray(eta, dtype=float)
    if link not in (DOWNLINK, UPLINK):
        raise ValueError(f"unknown link {link!r}")
    if eta.shape != (cells, users):
        raise ValueError(f"powers of shape {eta.shape} != (L, K) {(cells, users)}")
    # written so that a NaN power fails both checks
    if not np.all(eta >= 0):
        raise ValueError("powers must be nonnegative and not NaN")
    norms = per_cell_norms(eta, link)
    if not np.all(norms <= 1.0 + NORM_SLACK):
        raise ValueError(f"per-cell power constraint violated: norms {norms}")
    # 0 is a noise-only check; written so that a NaN rho fails
    if not 0.0 <= rho < np.inf:
        raise ValueError(f"normalized SNR rho must be finite and nonnegative, got {rho}")
    root_rho = np.sqrt(rho)
    # eff[l, lp] maps cell-lp symbols to cell-l users' received samples.
    # noise_map[l] maps the r noise draws of cell l to them; on the
    # downlink (None) the users' noise is received as drawn.
    if link == DOWNLINK:
        precoders = np.stack([precoder(channels[l, l], scheme, eta[l]) for l in range(cells)])
        eff = root_rho * (channels.transpose(1, 0, 3, 2) @ precoders)
        noise_map = None
    else:
        decoders = [decoder(channels[l, l], scheme) for l in range(cells)]
        # sqrt(eta) is applied at the transmitters, column (lp, k') of eff
        eff = np.stack([decoders[l] @ channels[l] for l in range(cells)])
        eff *= root_rho * np.sqrt(eta)[None, :, None, :]
        noise_map = np.stack([noise_factor(decoders[l], channels[l, l]) for l in range(cells)])
    mix = eff.transpose(0, 2, 1, 3).reshape(cells * users, -1)  # row (l, k), column (lp, k')
    return mix, np.real(np.diagonal(mix)).reshape(cells, users), noise_map


def simulate(
    channels: np.ndarray,
    checks: Sequence[tuple[str, str, np.ndarray, float]],
    n_symbols: int,
    seed: int,
) -> list[SimResult]:
    """Simulate the transmission equation of each check's link over the
    (L, L, M', K) channels and measure per-user SINR; `checks` is a sequence
    of (scheme, link, eta, rho), eta the (L, K) powers and rho that link's
    normalized SNR. channels[l, lp] maps cell lp's users to M' receive
    dimensions of base station l: its M antennas, or any orthonormal basis of
    a subspace that holds the range of the serving matrix channels[l, l]
    (`CrossGram.range_channels`), which gives the same law. Returns one
    `SimResult` per check, in order.

    Downlink: cell l transmits P_l s_l with its MR or ZF `precoder` P_l, and
    each user receives every cell's signal plus unit noise. Uplink: each user
    transmits sqrt(eta) s, and base station l decodes its antennas' signals
    plus unit noise with its `decoder` A_l (G^H for MR, Gram^-1 G^H for ZF).

    Every check is set up, and so validated, before the first draw: an
    unknown link or scheme, powers not (L, K), a negative or NaN power, a
    per-cell norm above 1 + NORM_SLACK, or a rho that is not finite and
    nonnegative raises `ValueError`. All checks read
    one stream of symbols and noise (see the module docstring).
    """
    if n_symbols < 1:
        raise ValueError("n_symbols must be >= 1")
    if not checks:
        raise ValueError("simulate needs at least one check")
    cells, users = channels.shape[0], channels.shape[3]
    n = cells * users
    setups = [(*_setup(channels, *check), _Moments((cells, users))) for check in checks]

    sizes = list(_chunks(n_symbols, n))
    rng = np.random.default_rng(seed)
    # chunk i's symbols and noise go to draw buffer i % 2; a shorter last
    # chunk takes a prefix of each buffer
    draws = np.empty((2, 2 * n * sizes[0]), dtype=np.complex128)
    work = np.empty((2, n * sizes[0]), dtype=np.complex128)  # received samples, one term
    powers = np.empty((2, n * sizes[0]))  # their |.|^2 and its square

    def draw(i):
        """Chunk i's (symbols, noise), each (L, K, nc)."""
        return _complex_normal(rng, draws[i % 2, : 2 * n * sizes[i]].reshape(2, cells, users, -1))

    drawing = None  # chunk i + 1's draw on the station pool, while chunk i is checked
    try:
        drawn = draw(0)
        for i, nc in enumerate(sizes):
            last = i + 1 == len(sizes)
            if not last and channel.WORKERS > 1:
                drawing = channel._pool().submit(draw, i + 1)
            symbols, w = drawn
            r, t = work[:, : n * nc].reshape(2, cells, users, nc)
            v, v2 = powers[:, : n * nc].reshape(2, cells, users, nc)
            for mix, coef, noise_map, impairment in setups:
                # received samples minus the desired term, built in place
                np.matmul(mix, symbols.reshape(n, nc), out=r.reshape(n, nc))
                if noise_map is None:
                    r += w
                else:
                    r += np.matmul(noise_map, w[:, : noise_map.shape[-1]], out=t)
                r -= np.multiply(coef[:, :, None], symbols, out=t)
                impairment.add(np.square(np.abs(r, out=v), out=v), v2)
            if not last:
                drawn = draw(i + 1) if drawing is None else drawing.result()
    finally:
        if drawing is not None:
            wait([drawing])

    results = []
    for _, coef, _, impairment in setups:
        p_in = impairment.mean()
        power = coef**2
        with np.errstate(divide="ignore", invalid="ignore"):
            sinr = np.where(p_in > 0, power / p_in, np.inf)
            stderr = np.where(p_in > 0, power * impairment.stderr() / p_in**2, 0.0)
        results.append(SimResult(sinr=sinr, sinr_stderr=stderr, interference_noise_power=p_in))
    return results
