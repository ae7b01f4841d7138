"""References for the Monte Carlo oracle.

`decoder` is the antenna-level MR/ZF decoder A of a serving matrix.
`simulate_uplink_per_antenna` draws the noise of every base-station antenna
(M samples per cell and symbol) and decodes it with the receiver, straight
from the transmission equation, so tests can check `losmimo.simulate`'s
uplink noise (K samples per cell and symbol, mapped by the principal root
of the decoded noise's covariance) against it.
`simulate_plain` is `losmimo.simulate`'s chunk loop without its prefetch,
which must give the same bits. `precoder_powers` measures the column powers
of the oracle's downlink precoder, which it never forms.
"""

from dataclasses import dataclass

import numpy as np

from losmimo.linproc import MR
from losmimo.mcsim import SimResult, _chunks, _processing, _setup

from reference_channel import cross_gram


@dataclass(frozen=True)
class UplinkReference:
    sinr: np.ndarray  # (L, K) empirical, linear
    sinr_stderr: np.ndarray  # (L, K)
    noise_power: np.ndarray  # (L, K) mean |A_l w_l|^2
    noise_stderr: np.ndarray  # (L, K)


def decoder(g: np.ndarray, scheme: str) -> np.ndarray:
    """(K, M) decoder of an M x K serving matrix: G^H for MR, Gram^-1 G^H for ZF."""
    return g.conj().T if scheme == MR else np.linalg.solve(g.conj().T @ g, g.conj().T)


def _complex_normal(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _mean_and_stderr(values):
    return np.mean(values, axis=-1), np.std(values, axis=-1) / np.sqrt(values.shape[-1])


def simulate_uplink_per_antenna(
    channels: np.ndarray, scheme: str, eta: np.ndarray, rho: float, n_symbols: int,
    seed: int,
) -> UplinkReference:
    """Base station l receives y_l = sqrt(rho) sum_lp H[l, lp] sqrt(eta_lp) s_lp
    + w_l with w_l ~ CN(0, I_M), eta the (L, K) uplink powers, and decodes
    A_l y_l, A_l = G^H (MR) or (G^H G)^-1 G^H (ZF)."""
    eta = np.asarray(eta, dtype=float)
    cells, _, antennas, users = channels.shape
    rng = np.random.default_rng(seed)
    symbols = _complex_normal(rng, (cells, users, n_symbols))
    noise = _complex_normal(rng, (cells, antennas, n_symbols))
    sent = np.sqrt(rho * eta)[:, :, None] * symbols
    shape = (cells, users)
    sinr, sinr_stderr, noise_power, noise_stderr = (np.empty(shape) for _ in range(4))
    for l in range(cells):
        g = channels[l, l]
        a = decoder(g, scheme)
        received = sum(channels[l, lp] @ sent[lp] for lp in range(cells)) + noise[l]
        decoded = a @ received
        coef = np.real(np.diag(a @ g)) * np.sqrt(rho * eta[l])
        p_in, p_in_stderr = _mean_and_stderr(np.abs(decoded - coef[:, None] * symbols[l]) ** 2)
        sinr[l] = coef**2 / p_in
        sinr_stderr[l] = coef**2 * p_in_stderr / p_in**2
        noise_power[l], noise_stderr[l] = _mean_and_stderr(np.abs(a @ noise[l]) ** 2)
    return UplinkReference(sinr=sinr, sinr_stderr=sinr_stderr, noise_power=noise_power,
                           noise_stderr=noise_stderr)


def simulate_plain(z: np.ndarray, checks, n_symbols: int, seed: int) -> list[SimResult]:
    """`losmimo.simulate` on the cross-Gram products z, on one thread, each
    chunk's symbols and noise drawn by two calls, and the moments summed in
    plain arrays: the same arithmetic in the same order, so the same bits."""
    cells, users = z.shape[0], z.shape[-1]
    n = cells * users
    setups = [_setup(_processing(z, scheme), *check) for scheme, *check in checks]
    s1, s2 = np.zeros((2, len(checks), cells, users))
    rng = np.random.default_rng(seed)
    for nc in _chunks(n_symbols, n):
        symbols, w = (rng.standard_normal((cells, users, nc, 2)) * np.sqrt(0.5) for _ in range(2))
        symbols, w = (parts.view(np.complex128)[..., 0] for parts in (symbols, w))
        for i, (mix, coef, noise_map) in enumerate(setups):
            received = (mix @ symbols.reshape(n, nc)).reshape(cells, users, nc)
            received += w if noise_map is None else noise_map @ w
            received -= coef[:, :, None] * symbols
            values = received.real**2 + received.imag**2
            s1[i] += np.sum(values, axis=-1)
            s2[i] += np.sum(values**2, axis=-1)
    results = []
    for (_, coef, _), total, total_sq in zip(setups, s1, s2):
        p_in = total / n_symbols
        stderr = np.sqrt(np.clip(total_sq / n_symbols - p_in**2, 0.0, None) / n_symbols)
        power = coef**2
        with np.errstate(divide="ignore", invalid="ignore"):
            results.append(SimResult(sinr=np.where(p_in > 0, power / p_in, np.inf),
                                     sinr_stderr=np.where(p_in > 0, power * stderr / p_in**2, 0.0),
                                     interference_noise_power=p_in))
    return results


def precoder_powers(rng, g: np.ndarray, scheme: str, eta: np.ndarray) -> np.ndarray:
    """Column powers ||P[:, k]||^2 of the downlink precoder P that the oracle
    (`_processing`, `_setup`) builds for a cell with the M x K serving matrix
    g and powers eta, as received by c = ceil(M / K) further cells of K users
    each: their channels from the cell's station are the M rows of a random
    unitary, a tight frame, so their users together receive each symbol at
    its power."""
    antennas, users = g.shape
    others = -(-antennas // users)
    cells = 1 + others
    shape = (cells, cells, antennas, users)
    channels = _complex_normal(rng, shape) / np.sqrt(antennas)
    channels[0, 0] = g
    frame = np.linalg.qr(rng.standard_normal((others * users,) * 2)
                         + 1j * rng.standard_normal((others * users,) * 2))[0][:antennas]
    channels[0, 1:] = frame.reshape(antennas, others, users).transpose(1, 0, 2)
    powers = np.zeros((cells, users))
    powers[0] = eta
    mix = _setup(_processing(cross_gram(channels).z, scheme), "DL", powers, 1.0)[0]
    return np.sum(np.abs(mix[users:, :users]) ** 2, axis=0)
