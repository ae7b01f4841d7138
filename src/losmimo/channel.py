"""Spherical-wave LoS channels, free-space path loss, and link budgets.

Channel entry for antenna m at distance r:

    g_m = (lambda / (4 pi)) * exp(i 2 pi r / lambda) / r

The lambda/(4 pi) amplitude makes the per-antenna power gain equal to the
inverse free-space path loss, so the normalized SNRs rho_dl / rho_ul are
plain transmit-power-to-noise-power ratios.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SingularGeometryError
from .geometry import ArrayGeometry, CellLayout, UserDrop

C_LIGHT = 299792458.0  # m/s

_DUMP_MAGIC = "losmimo-channelset-v1"


def wavelength_m(carrier_ghz: float) -> float:
    if carrier_ghz <= 0:
        raise ConfigurationError(f"carrier frequency must be positive, got {carrier_ghz} GHz")
    return C_LIGHT / (carrier_ghz * 1e9)


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


@dataclass(frozen=True)
class LinkBudget:
    rho_dl: float  # linear
    rho_ul: float  # linear


def link_budget(
    carrier_ghz: float,
    bandwidth_hz: float,
    bs_power_w: float,
    mobile_power_w: float,
    bs_noise_figure_db: float,
    mobile_noise_figure_db: float,
) -> LinkBudget:
    """Normalized SNRs from radiated powers and thermal noise.

    Noise power (dBm) = -174 + 10 log10(bandwidth) + noise figure.
    DL noise uses the mobile receiver's noise figure; UL uses the base
    station's. Both ratios are returned in linear scale.
    """
    if min(carrier_ghz, bandwidth_hz, bs_power_w, mobile_power_w) <= 0:
        raise ConfigurationError("link_budget requires positive powers, bandwidth, frequency")
    dl_noise_dbm = -174.0 + 10.0 * np.log10(bandwidth_hz) + mobile_noise_figure_db
    ul_noise_dbm = -174.0 + 10.0 * np.log10(bandwidth_hz) + bs_noise_figure_db
    bs_dbm = 10.0 * np.log10(bs_power_w * 1e3)
    mobile_dbm = 10.0 * np.log10(mobile_power_w * 1e3)
    # an extreme power or noise figure overflows to inf or underflows to 0,
    # which is rejected below rather than warned about
    with np.errstate(over="ignore", under="ignore"):
        rho_dl = 10.0 ** ((bs_dbm - dl_noise_dbm) / 10.0)
        rho_ul = 10.0 ** ((mobile_dbm - ul_noise_dbm) / 10.0)
    for name, rho, keys in (
        ("rho_dl", rho_dl, "bs_power_w, bandwidth_hz and mobile_noise_figure_db"),
        ("rho_ul", rho_ul, "mobile_power_w, bandwidth_hz and bs_noise_figure_db"),
    ):
        if not 0.0 < rho < np.inf:
            raise ConfigurationError(f"{keys} give {name} = {rho}, not finite and positive")
    return LinkBudget(rho_dl=rho_dl, rho_ul=rho_ul)


def los_channel(user_position: np.ndarray, array: ArrayGeometry, wavelength: float) -> np.ndarray:
    """Spherical-wave channel vector from one user to every array antenna."""
    user_position = np.asarray(user_position, dtype=float)
    r = np.linalg.norm(array.positions - user_position[None, :], axis=1)
    if np.any(r < 1e-9):
        raise SingularGeometryError("user position coincides with an antenna position")
    amp = wavelength / (4.0 * np.pi)
    return amp * np.exp(2j * np.pi * r / wavelength) / r


@dataclass(frozen=True)
class ChannelSet:
    """All L*L channel matrices of one drop.

    matrices[l, lp] is the M x K matrix of channels from the K users served
    by cell lp to the M antennas of base station l.
    """

    matrices: np.ndarray  # (L, L, M, K) complex128
    wavelength: float

    @property
    def cell_count(self) -> int:
        return self.matrices.shape[0]

    @property
    def antenna_count(self) -> int:
        return self.matrices.shape[2]

    @property
    def users_per_cell(self) -> int:
        return self.matrices.shape[3]

    def serving(self, cell: int) -> np.ndarray:
        """M x K matrix between cell's own base station and its users."""
        return self.matrices[cell, cell]


def build_channel_set(
    layout: CellLayout,
    arrays: list[ArrayGeometry],
    drop: UserDrop,
    wavelength: float,
) -> ChannelSet:
    """Fill the full L x L grid of channel matrices for one user drop.

    Each M x K block is `los_channel` for all K users at once, with the same
    operations in the same order, so the entries are bit-identical to it.
    """
    cells = layout.cell_count
    if len(arrays) != cells or drop.positions.shape[0] != cells:
        raise ConfigurationError("layout, arrays, and drop disagree on cell count")
    antennas = arrays[0].antenna_count
    users = drop.users_per_cell
    amp = wavelength / (4.0 * np.pi)
    matrices = np.empty((cells, cells, antennas, users), dtype=np.complex128)
    for bs in range(cells):
        ax, ay, az = (np.ascontiguousarray(col)[:, None] for col in arrays[bs].positions.T)
        for cell in range(cells):
            ux, uy, uz = (col[None, :] for col in drop.positions[cell].T)
            dx, dy, dz = ax - ux, ay - uy, az - uz
            r = np.sqrt(dx * dx + dy * dy + dz * dz)
            if np.any(r < 1e-9):
                raise SingularGeometryError("user position coincides with an antenna position")
            block = matrices[bs, cell]
            np.multiply(2j * np.pi, r, out=block)
            block /= wavelength
            np.exp(block, out=block)
            block *= amp
            block /= r
    return ChannelSet(matrices=matrices, wavelength=wavelength)


def dump_channel_set(channels: ChannelSet, path) -> None:
    """Text dump for cross-implementation diffing.

    Blocks are written in (lp, l) order (users' cell outer, base station
    inner); each block has M rows of 2K floats (interleaved real/imag).
    """
    cells, _, antennas, users = channels.matrices.shape
    with open(path, "w") as fh:
        fh.write(f"{_DUMP_MAGIC}\n")
        fh.write(f"{cells} {antennas} {users}\n")
        fh.write(f"{channels.wavelength!r}\n")
        for lp in range(cells):
            for l in range(cells):
                block = channels.matrices[l, lp]
                inter = np.empty((antennas, 2 * users))
                inter[:, 0::2] = block.real
                inter[:, 1::2] = block.imag
                for row in inter:
                    fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_channel_set(path) -> ChannelSet:
    with open(path) as fh:
        magic = fh.readline().strip()
        if magic != _DUMP_MAGIC:
            raise ConfigurationError(f"not a channel-set dump: bad header {magic!r}")
        cells, antennas, users = (int(v) for v in fh.readline().split())
        wl = float(fh.readline())
        matrices = np.empty((cells, cells, antennas, users), dtype=np.complex128)
        for lp in range(cells):
            for l in range(cells):
                rows = np.array(
                    [[float(v) for v in fh.readline().split()] for _ in range(antennas)]
                )
                matrices[l, lp] = rows[:, 0::2] + 1j * rows[:, 1::2]
    return ChannelSet(matrices=matrices, wavelength=wl)
