"""Per-user reference for the channel build, free-space path loss, and a
reader for channel dumps.

`los_channel` computes one user's spherical-wave channel vector on its own,
with the same operations as the package's per-station kernel
(`losmimo.channel.station_channels`), so tests can check every built entry
bit for bit. `fspl_db` is the textbook path loss the channel amplitude must
reproduce. `load_channel_dump` reads what `losmimo dump-channels` writes.
"""

import numpy as np

from losmimo import ArrayGeometry, ChannelSet, ConfigurationError, SingularGeometryError
from losmimo.channel import C_LIGHT

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


def los_channel(user_position: np.ndarray, array: ArrayGeometry, wavelength: float) -> np.ndarray:
    """Spherical-wave channel vector from one user to every array antenna."""
    user_position = np.asarray(user_position, dtype=float)
    r = np.linalg.norm(array.positions - user_position[None, :], axis=1)
    if np.any(r < 1e-9):
        raise SingularGeometryError("user position coincides with an antenna position")
    amp = wavelength / (4.0 * np.pi)
    return amp * np.exp(2j * np.pi * r / wavelength) / r


def load_channel_dump(path) -> ChannelSet:
    """The channel set in a `dump_channel_set` text file: a magic line, a
    "L M K" line, the wavelength, then the (lp, l) blocks of M rows of 2K
    interleaved real/imaginary floats."""
    with open(path) as fh:
        assert fh.readline().strip() == "losmimo-channelset-v1"
        cells, antennas, users = (int(v) for v in fh.readline().split())
        wavelength = float(fh.readline())
        rows = np.loadtxt(fh, ndmin=2)
    blocks = rows.reshape(cells, cells, antennas, 2 * users)  # users' cell outer
    matrices = blocks[..., 0::2] + 1j * blocks[..., 1::2]
    return ChannelSet(matrices=matrices.transpose(1, 0, 2, 3), wavelength=wavelength)
