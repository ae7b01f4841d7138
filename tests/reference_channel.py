"""References for the channel build, the cross-Gram and free-space path loss.

`los_channel` computes one user's spherical-wave channel vector on its own,
with the same operations in the same order as the package's kernel
(`losmimo.channel.station_channels`: exp(i theta / 4)^4 of the phase theta
of r / lambda's fractional part, then one real amplitude factor), so tests
can check every built entry bit for bit. `channel_tensor` holds a drop's whole (L, L, M, K)
channels, which the package never does, and `cross_gram` reduces each
station's row in one product. `losmimo.stream_cross_gram` sums that product
over antenna tiles instead, so it must match bit for bit where a station is
one tile, and closely where it is several. `fspl_db` is the textbook path
loss the channel amplitude must reproduce.
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


def los_channel(user_position: np.ndarray, antennas: np.ndarray, wavelength: float) -> np.ndarray:
    """Spherical-wave channel vector (M,) from one user (3,) to every antenna (M, 3)."""
    user_position = np.asarray(user_position, dtype=float)
    r = np.linalg.norm(antennas - user_position[None, :], axis=1)
    if np.any(r < 1e-9):
        raise SingularGeometryError("user position coincides with an antenna position")
    # the kernel's operation order: exp(i theta / 4)^4 of the phase theta of
    # r / lambda's fractional cycle, then the real amplitude (lambda / 4 pi) / r
    cycles = r / wavelength
    quarter = np.exp(0.5j * np.pi * (cycles - np.rint(cycles)))
    return np.square(np.square(quarter)) * (wavelength / (4.0 * np.pi) / r)


def channel_tensor(antennas: np.ndarray, users: np.ndarray, wavelength: float) -> np.ndarray:
    """(L, L, M, K) channels between the antennas (L, M, 3) and the users
    (L, K, 3) of one drop, one base station at a time on the calling thread:
    channels[l, lp] is the M x K matrix from cell lp's users to station l."""
    shape = (len(antennas), antennas.shape[1], users.shape[1])
    channels = np.empty((len(antennas), *shape), dtype=np.complex128)
    r, tmp = np.empty(shape), np.empty(shape)
    for l, station in enumerate(antennas):
        station_channels(station, users, wavelength, channels[l], r, tmp)
    return channels


def cross_gram(channels: np.ndarray) -> CrossGram:
    """Cross-Gram products z[l, lp] = G[l, l]^H G[l, lp] of (L, L, M, K) channels."""
    cells, users = channels.shape[0], channels.shape[3]
    z = np.empty((cells, cells, users, users), dtype=np.complex128)
    for l, block in enumerate(channels):
        np.matmul(block[l].conj().T, block, out=z[l])
    return CrossGram(z=z)
