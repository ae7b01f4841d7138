"""Per-antenna reference for the uplink Monte Carlo oracle.

Draws the noise of every base-station antenna (M samples per cell and
symbol) and decodes it with the receiver, straight from the transmission
equation, so tests can check `losmimo.simulate`'s factored uplink noise
(min(M, K) samples per cell and symbol) against it.
"""

from dataclasses import dataclass

import numpy as np

from losmimo.linproc import MR


@dataclass(frozen=True)
class UplinkReference:
    sinr: np.ndarray  # (L, K) empirical, linear
    sinr_stderr: np.ndarray  # (L, K)
    noise_power: np.ndarray  # (L, K) mean |A_l w_l|^2
    noise_stderr: np.ndarray  # (L, K)


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
        decoder = g.conj().T if scheme == MR else np.linalg.solve(g.conj().T @ g, g.conj().T)
        received = sum(channels[l, lp] @ sent[lp] for lp in range(cells)) + noise[l]
        decoded = decoder @ received
        coef = np.real(np.diag(decoder @ g)) * np.sqrt(rho * eta[l])
        p_in, p_in_stderr = _mean_and_stderr(np.abs(decoded - coef[:, None] * symbols[l]) ** 2)
        sinr[l] = coef**2 / p_in
        sinr_stderr[l] = coef**2 * p_in_stderr / p_in**2
        noise_power[l], noise_stderr[l] = _mean_and_stderr(np.abs(decoder @ noise[l]) ** 2)
    return UplinkReference(sinr=sinr, sinr_stderr=sinr_stderr, noise_power=noise_power,
                           noise_stderr=noise_stderr)
