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
chunk holds its symbols, its noise draws and one check's impairment (the
checks take turns), one temporary at a time, and, while the next chunk or
check is computed, the last one's arrays: about five such arrays at the
peak, whatever M, the symbol count and the number of checks. Results depend
only on the seed.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .linproc import DOWNLINK, NORM_SLACK, UPLINK, decoder, per_cell_norms, precoder

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
    (L, L, M, K) channels and measure per-user SINR; `checks` is a sequence
    of (scheme, link, eta, rho), eta the (L, K) powers and rho that link's
    normalized SNR. Returns one `SimResult` per check, in order.

    Downlink: cell l transmits P_l s_l with its MR or ZF `precoder` P_l, and
    each user receives every cell's signal plus unit noise. Uplink: each user
    transmits sqrt(eta) s, and base station l decodes its antennas' signals
    plus unit noise with its `decoder` A_l (G^H for MR, Gram^-1 G^H for ZF).

    Every check is set up, and so validated, before the first draw: an
    unknown link or scheme, powers not (L, K), a negative or NaN power, or a
    per-cell norm above 1 + NORM_SLACK raises `ValueError`. All checks read
    one stream of symbols and noise (see the module docstring).
    """
    if n_symbols < 1:
        raise ValueError("n_symbols must be >= 1")
    if not checks:
        raise ValueError("simulate needs at least one check")
    cells, users = channels.shape[0], channels.shape[3]
    n = cells * users
    setups = [(*_setup(channels, *check), _Moments((cells, users))) for check in checks]

    rng = np.random.default_rng(seed)
    for nc in _chunks(n_symbols, n):
        symbols = _complex_normal(rng, (cells, users, nc))
        w = _complex_normal(rng, (cells, users, nc))
        for mix, coef, noise_map, impairment in setups:
            # received samples minus the desired term, built in place
            received = (mix @ symbols.reshape(n, nc)).reshape(cells, users, nc)
            received += w if noise_map is None else noise_map @ w[:, : noise_map.shape[-1]]
            received -= coef[:, :, None] * symbols
            impairment.add(np.abs(received) ** 2)

    results = []
    for _, coef, _, impairment in setups:
        p_in = impairment.mean()
        power = coef**2
        with np.errstate(divide="ignore", invalid="ignore"):
            sinr = np.where(p_in > 0, power / p_in, np.inf)
            stderr = np.where(p_in > 0, power * impairment.stderr() / p_in**2, 0.0)
        results.append(SimResult(sinr=sinr, sinr_stderr=stderr, interference_noise_power=p_in))
    return results
