"""Spherical-wave LoS channels and link budgets.

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


def link_budget(
    carrier_ghz: float,
    bandwidth_hz: float,
    bs_power_w: float,
    mobile_power_w: float,
    bs_noise_figure_db: float,
    mobile_noise_figure_db: float,
) -> tuple[float, float]:
    """Normalized SNRs (rho_dl, rho_ul) from radiated powers and thermal noise.

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
    return rho_dl, rho_ul


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


def station_channels(
    array: ArrayGeometry,
    drop: UserDrop,
    wavelength: float,
    out: np.ndarray,
    r: np.ndarray,
    tmp: np.ndarray,
) -> np.ndarray:
    """Fill `out` (L, M, K) with the channels from every cell's users to one
    base station's array, in place.

    `r` and `tmp` are float (L, M, K) scratch buffers; on return `r` holds
    the antenna-user distances. Entry (cell, m, k) is g_m of user (cell, k).
    """
    ax, ay, az = (col[None, :, None] for col in array.positions.T)
    ux, uy, uz = (col[:, None, :] for col in np.moveaxis(drop.positions, -1, 0))
    np.subtract(ax, ux, out=tmp)
    np.multiply(tmp, tmp, out=r)
    for a, u in ((ay, uy), (az, uz)):
        np.subtract(a, u, out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        r += tmp
    np.sqrt(r, out=r)
    if r.min() < 1e-9:
        raise SingularGeometryError("user position coincides with an antenna position")
    np.multiply(2j * np.pi, r, out=out)
    out /= wavelength
    np.exp(out, out=out)
    out *= wavelength / (4.0 * np.pi)
    out /= r
    return out


def build_channel_set(
    layout: CellLayout,
    arrays: list[ArrayGeometry],
    drop: UserDrop,
    wavelength: float,
) -> ChannelSet:
    """Fill the full L x L grid of channel matrices for one user drop, one
    base station at a time with `station_channels`."""
    cells = layout.cell_count
    if len(arrays) != cells or drop.positions.shape[0] != cells:
        raise ConfigurationError("layout, arrays, and drop disagree on cell count")
    shape = (cells, arrays[0].antenna_count, drop.users_per_cell)
    matrices = np.empty((cells, *shape), dtype=np.complex128)
    r, tmp = np.empty(shape), np.empty(shape)
    for bs in range(cells):
        station_channels(arrays[bs], drop, wavelength, matrices[bs], r, tmp)
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

