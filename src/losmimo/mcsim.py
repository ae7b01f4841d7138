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

The oracle sees a drop only through its cross-Gram products z (L, L, K, K),
z[l, lp] = G[l, l]^H G[l, lp] for the channels G[l, lp] (M x K) from cell
lp's users to base station l. Station l's MR or ZF decoder A_l (G[l, l]^H,
or the Gram inverse times it) enters the transmission equations only through
A_l G[l, :], which is z[l] or z[l, l]^-1 z[l], and through the covariance
A_l A_l^H of its decoded noise, z[l, l] or z[l, l]^-1 (`_processing`, from
one stacked `eigh` of the L serving Grams per scheme and call). Only noise
that reaches the users is drawn, K samples per cell and symbol. On the
downlink they are each user's receiver noise, received as drawn. On the
uplink the decoded noise A_l w of the M antennas' noise w has the law of
S_l v, v the K drawn samples, for the covariance's principal square root
S_l: unique, so independent of the eigenvectors' phases, and defined for the
rank-deficient MR Gram of K > M.

Symbols are processed in chunks of about _CHUNK_BUDGET / (L K) symbols
(585 at L=7, K=8), so each (L, K, chunk) complex array takes 512 KiB. A
chunk's symbols and noise are drawn in one call into one fresh array. Where
the station pool exists (`channel.WORKERS` > 1), it draws chunk i + 1 while
the calling thread runs chunk i's checks; the draws come from one generator
in one order either way, so results depend only on the seed, not on the
worker count.
"""

from collections.abc import Sequence
from concurrent.futures import wait
from dataclasses import dataclass

import numpy as np

from . import channel
from .errors import DegenerateChannelError, SingularChannelError
from .linproc import DOWNLINK, MR, NORM_SLACK, UPLINK, ZF, gram_inverse, per_cell_norms

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


class _Moments:
    """Streaming first/second moments of a nonnegative per-sample statistic."""

    def __init__(self, shape):
        self.s1 = np.zeros(shape)
        self.s2 = np.zeros(shape)
        self.n = 0

    def add(self, values: np.ndarray) -> None:
        # values: (*shape, n_chunk)
        self.s1 += np.sum(values, axis=-1)
        self.s2 += np.sum(np.square(values), axis=-1)
        self.n += values.shape[-1]

    def mean(self) -> np.ndarray:
        return self.s1 / self.n

    def stderr(self) -> np.ndarray:
        var = np.clip(self.s2 / self.n - self.mean() ** 2, 0.0, None)
        return np.sqrt(var / self.n)


def _chunks(n_symbols: int, per_symbol: int) -> list[int]:
    chunk = max(1, min(n_symbols, _CHUNK_BUDGET // max(per_symbol, 1)))
    return [min(chunk, n_symbols - done) for done in range(0, n_symbols, chunk)]


def _processing(z: np.ndarray, scheme: str):
    """A scheme's (t, noise_power, root) at every station, from one stacked
    `eigh` of the serving Grams z[l, l]: t[l] = A_l G[l, :], noise_power[l]
    the diagonal of the noise covariance A_l A_l^H, root[l] its principal
    square root V f(lam) V^H."""
    cells, users = z.shape[0], z.shape[-1]
    if z.shape != (cells, cells, users, users):
        raise ValueError(f"cross-Gram products of shape {z.shape} are not (L, L, K, K)")
    if scheme not in (MR, ZF):
        raise ValueError(f"unknown scheme {scheme!r}")
    # eigh may not converge on a non-finite Gram, and a non-finite cross block gives NaN SINRs
    if not np.isfinite(z).all():
        raise SingularChannelError("cross-Gram products are not finite")
    own = np.arange(cells)
    gram = z[own, own]
    lam, v = np.linalg.eigh(gram)
    if scheme == MR:
        t, covariance, f = z, gram, np.sqrt(np.clip(lam, 0.0, None))
    else:
        covariance = gram_inverse(gram, (lam, v))
        t, f = covariance[:, None] @ z, 1.0 / np.sqrt(lam)
    root = (v * f[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return t, np.real(np.diagonal(covariance, axis1=-2, axis2=-1)), root


def _setup(processing, link: str, eta: np.ndarray, rho: float):
    """Validate one check on its scheme's `_processing`; return its (mix, coef, noise_map)."""
    t, noise_power, root = processing
    cells, users = noise_power.shape
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
    # eff[l, lp] maps cell-lp symbols to cell-l users' received samples, with
    # sqrt(eta) applied at the transmitters, column (lp, k'). On the downlink
    # (noise_map None) the users' noise is received as drawn; on the uplink
    # noise_map[l] maps cell l's K noise draws to its decoded samples.
    if link == DOWNLINK:
        # cell lp's precoder is A_lp^T, column k' scaled to power eta[lp, k']
        if np.any(noise_power == 0):
            raise DegenerateChannelError("zero channel column")
        eff = t.transpose(1, 0, 3, 2) * np.sqrt(rho * eta / noise_power)[None, :, None, :]
        noise_map = None
    else:
        eff = t * np.sqrt(rho * eta)[None, :, None, :]
        noise_map = root
    mix = eff.transpose(0, 2, 1, 3).reshape(cells * users, -1)  # row (l, k), column (lp, k')
    return mix, np.real(np.diagonal(mix)).reshape(cells, users), noise_map


def simulate(
    z: np.ndarray,
    checks: Sequence[tuple[str, str, np.ndarray, float]],
    n_symbols: int,
    seed: int,
) -> list[SimResult]:
    """Simulate the transmission equation of each check's link over the drop
    whose (L, L, K, K) cross-Gram products are z (`CrossGram.z`), and measure
    per-user SINR; `checks` is a sequence of (scheme, link, eta, rho), eta the
    (L, K) powers and rho that link's normalized SNR. Returns one `SimResult`
    per check, in order.

    Downlink: cell l transmits P_l s_l with the precoder P_l = A_l^T, column
    k scaled to power eta[l, k], and each user receives every cell's signal
    plus unit noise. Uplink: each user transmits sqrt(eta) s, and base
    station l decodes its antennas' signals plus unit noise with A_l. A_l is
    G^H for MR and Gram^-1 G^H for ZF, G = G[l, l]; the module docstring
    shows how z alone gives both.

    Each scheme's processing is read from z once (`_processing`), and every
    check is set up on it, and so validated, before the first draw: an
    unknown link or scheme, powers not (L, K), a negative or NaN power, a
    per-cell norm above 1 + NORM_SLACK, or a rho that is not finite and
    nonnegative raises `ValueError`; a z that is not finite or a ZF Gram
    beyond `gram_inverse`'s guard raises `SingularChannelError`, and a zero
    downlink precoder column `DegenerateChannelError`. All checks read one
    stream of symbols and noise (see the module docstring).
    """
    if n_symbols < 1:
        raise ValueError("n_symbols must be >= 1")
    if not checks:
        raise ValueError("simulate needs at least one check")
    cells, users = z.shape[0], z.shape[-1]
    n = cells * users
    processing = {s: _processing(z, s) for s in dict.fromkeys(c[0] for c in checks)}
    setups = [(*_setup(processing[s], *check), _Moments((cells, users))) for s, *check in checks]

    sizes = _chunks(n_symbols, n)
    rng = np.random.default_rng(seed)

    def draw(nc):
        """A chunk's (symbols, noise), each (L, K, nc)."""
        return _complex_normal(rng, np.empty((2, cells, users, nc), dtype=np.complex128))

    drawing = None  # chunk i + 1's draw on the station pool, while chunk i is checked
    try:
        drawn = draw(sizes[0])
        for i, nc in enumerate(sizes):
            last = i + 1 == len(sizes)
            if not last and channel.WORKERS > 1:
                drawing = channel._pool().submit(draw, sizes[i + 1])
            symbols, w = drawn
            for mix, coef, noise_map, impairment in setups:
                # received samples minus the desired term
                r = (mix @ symbols.reshape(n, nc)).reshape(cells, users, nc)
                r += w if noise_map is None else noise_map @ w
                r -= coef[:, :, None] * symbols
                # |r|^2 from real squares: complex abs runs scalar hypot
                impairment.add(r.real**2 + r.imag**2)
            if not last:
                drawn = draw(sizes[i + 1]) if drawing is None else drawing.result()
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
