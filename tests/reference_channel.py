"""References for the channel build, the cross-Gram and free-space path loss.

`los_channel` computes one user's spherical-wave channel vector on its own,
from distances taken by `np.linalg.norm` of the position differences.
`los_entries` turns given distances into channel entries with the same
operations in the same order as the package's kernel
(`losmimo.channel.station_channels`: the tangent half-angle form
(1 + i t)^4 / (1 + t^2)^2 of the phase theta of r / lambda's fractional
part, t = tan(theta / 4), with (1 + t^2)^2 joined to one real amplitude
factor), so tests can check every entry the kernel builds from its
own distances bit for bit. The kernel's distances come from a BLAS product,
whose last bits no per-user computation follows; tests check them against
40-digit decimals instead. `channel_tensor` holds a drop's whole
(L, L, M, K) channels, which the package never does, each station built
whole by the kernel as one (M, L K) block, and `cross_gram` reduces each
station's block in one (K, M) (M, L K) product. `losmimo.stream_cross_gram`
sums that product over antenna tiles instead, so it must match bit for bit
where a station is one tile, and closely where it is several. `fspl_db` is
the textbook path loss the channel amplitude must reproduce.
"""

import numpy as np

from losmimo import ConfigurationError, CrossGram, SingularGeometryError
from losmimo.channel import C_LIGHT, station_channels

# dB form of (4 pi d f / c)^2; the constant is the exact value of the
# commonly rounded 32.45 so it stays consistent with the channel amplitude
_FSPL_CONST_DB = 20.0 * np.log10(4.0 * np.pi * 1e9 / C_LIGHT)


def fspl_db(freq_ghz: float, distance_m) -> float:
    """Free-space path loss 32.45 + 20 log10(f_GHz) + 20 log10(d_m), in dB."""
    distance_m = np.asarray(distance_m, dtype=float)
    if freq_ghz <= 0 or np.any(distance_m <= 0):
        raise ConfigurationError("fspl_db requires positive frequency and distance")
    out = _FSPL_CONST_DB + 20.0 * np.log10(freq_ghz) + 20.0 * np.log10(distance_m)
    return float(out) if out.ndim == 0 else out


def los_entries(r: np.ndarray, wavelength: float) -> np.ndarray:
    """Channel entries (lambda / 4 pi r) exp(i 2 pi r / lambda) at distances r,
    in the kernel's operation order: t = tan of a quarter of the phase theta
    of r / lambda's fractional cycle, ((1 - t^2) + i 2 t)^2, then the real
    amplitude (lambda / 4 pi) / ((t^2 + 1)^2 r)."""
    cycles = r / wavelength
    t = np.tan(0.5 * np.pi * (cycles - np.rint(cycles)))
    return np.square((1.0 - t * t) + 1j * (2.0 * t)) * (
        wavelength / (4.0 * np.pi) / (np.square(t * t + 1.0) * r))


def los_channel(user_position: np.ndarray, antennas: np.ndarray, wavelength: float) -> np.ndarray:
    """Spherical-wave channel vector (M,) from one user (3,) to every antenna (M, 3)."""
    user_position = np.asarray(user_position, dtype=float)
    r = np.linalg.norm(antennas - user_position[None, :], axis=1)
    if np.any(r < 1e-9):
        raise SingularGeometryError("user position coincides with an antenna position")
    return los_entries(r, wavelength)


def channel_tensor(antennas: np.ndarray, users: np.ndarray, wavelength: float) -> np.ndarray:
    """(L, L, M, K) channels between the antennas (L, M, 3) and the users
    (L, K, 3) of one drop, one base station at a time on the calling thread:
    channels[l, lp] is the M x K matrix from cell lp's users to station l.
    Positions are taken relative to each station's array center, as
    `stream_cross_gram` takes them."""
    cells, m, k = len(antennas), antennas.shape[1], users.shape[1]
    rows = np.empty((cells, m, cells * k), dtype=np.complex128)
    r, tmp = np.empty((m, cells * k)), np.empty((m, cells * k))
    centers = antennas.mean(axis=1)
    for l, station in enumerate(antennas):
        station_channels(station - centers[l], users.reshape(-1, 3) - centers[l], wavelength,
                         rows[l], r, tmp)
    return rows.reshape(cells, m, cells, k).transpose(0, 2, 1, 3)


def cross_gram(channels: np.ndarray) -> CrossGram:
    """Cross-Gram products z[l, lp] = G[l, l]^H G[l, lp] of (L, L, M, K)
    channels, one (K, M) (M, L K) product per station."""
    cells, m, k = channels.shape[0], channels.shape[2], channels.shape[3]
    z = np.empty((cells, cells, k, k), dtype=np.complex128)
    for l, block in enumerate(channels):
        row = np.moveaxis(block, 0, 1).reshape(m, cells * k)
        serving = row[:, l * k:(l + 1) * k].conj()
        z[l] = (serving.T @ row).reshape(k, cells, k).transpose(1, 0, 2)
    return CrossGram(z=z)
