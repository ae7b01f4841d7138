"""Spherical-wave LoS channels, their cross-Gram products, and link budgets.

Channel entry for antenna m at distance r:

    g_m = (lambda / (4 pi)) * exp(i 2 pi r / lambda) / r

The lambda/(4 pi) amplitude makes the per-antenna power gain equal to the
inverse free-space path loss, so the normalized SNRs rho_dl / rho_ul are
plain transmit-power-to-noise-power ratios. The distance r comes from the
Gram form |a|^2 + |u|^2 - 2 a.u of positions relative to the station's
array center, and the phase from the exact fractional part of r / lambda,
as (1 + i t)^4 / (1 + t^2)^2 with t = tan(theta / 4) and |theta| <= pi.

A drop's channels are never held whole: `stream_cross_gram` builds them in
cache-sized (station, antenna tile) blocks of (n, L K), shared evenly by
the station pool, and turns each block into its cross-Gram products at
once; the rest of the package sees a drop only through that `CrossGram`.
The geometry is plain arrays: antennas (L, M, 3) by base station, users
(L, K, 3) by cell.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import ConfigurationError, SingularGeometryError
from .linproc import gram_inverse

C_LIGHT = 299792458.0  # m/s
MIN_ANTENNA_DISTANCE_M = 1e-9  # a user closer than this to an antenna has no channel
CHANNEL_RTOL = 1e-9  # relative error of a channel entry that `closest_distance_m` allows
# the most wavelengths from a station's array center to its farthest user at
# which every entry keeps CHANNEL_RTOL: positions relative to the center round
# r by up to about 1.7 eps per wavelength of distance, so the phase errs by
# 2.4e-15 per wavelength at worst in 140 000 sampled published-layout entries
# (3.4e-10 at 60 GHz, 3.8e-10 at this limit's 67 GHz, 3.2e-9 at 600 GHz)
MAX_REACH_WAVELENGTHS = 2e5
# threads that build a drop's channels: the usable CPUs, or all where unknown
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# the most threads one drop's stream runs on, whatever WORKERS is: `validate`
# counts each one's tile buffers, so its verdict is the same on every host
STREAM_THREADS = 8


def wavelength_m(carrier_ghz: float) -> float:
    if carrier_ghz <= 0:
        raise ConfigurationError(f"carrier frequency must be positive, got {carrier_ghz} GHz")
    return C_LIGHT / (carrier_ghz * 1e9)


def link_budget(
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
    if min(bandwidth_hz, bs_power_w, mobile_power_w) <= 0:
        raise ConfigurationError("link_budget requires positive powers and bandwidth")
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


def closest_distance_m(array_radius: float, wavelength: float) -> float:
    """Smallest antenna-user distance at which the Gram form of
    `station_channels` moves no entry by more than CHANNEL_RTOL, relative, at
    an array of radius R.

    Near an antenna the Gram form cancels terms of size R^2, so it rounds r
    by about dr = 2 eps R^2 / r. That moves the phase by 2 pi dr / lambda and
    the amplitude by dr / r relative; each stays within the tolerance from
    this distance on. It is never below MIN_ANTENNA_DISTANCE_M."""
    drift = 2.0 * np.finfo(float).eps * array_radius * array_radius  # dr times r
    return max(MIN_ANTENNA_DISTANCE_M, 2.0 * np.pi * drift / (wavelength * CHANNEL_RTOL),
               np.sqrt(drift / CHANNEL_RTOL))


def station_channels(tile: np.ndarray, users: np.ndarray, wavelength: float,
                     out: np.ndarray, r: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Fill `out` (n, L K) with the channels from the L K users (L K, 3) to the
    n antennas (n, 3) of one base station, in place.

    Both positions are relative to the station's array center. `r` and
    `tmp` are float (n, L K) scratch buffers; on return `r` holds the
    antenna-user distances. Entry (m, l K + k) is g_m of user (l, k).
    """
    # the Gram form r^2 = |a|^2 + |u|^2 - 2 a.u: one BLAS product and two
    # broadcast adds in place of three differences and three squares
    np.matmul(-2.0 * tile, users.T, out=r)
    r += np.einsum("ij,ij->i", tile, tile)[:, None]
    r += np.einsum("ij,ij->i", users, users)
    with np.errstate(invalid="ignore"):  # an r^2 rounded below 0 gives NaN, rejected below
        np.sqrt(r, out=r)
    if not r.min() >= MIN_ANTENNA_DISTANCE_M:
        raise SingularGeometryError("user position coincides with an antenna position")
    # the exact fractional cycle spares any argument reduction: with t the tan
    # of a quarter of its phase, |theta / 4| <= pi / 4, the tangent half-angle
    # form gives exp(i theta) = (1 + i t)^4 / (1 + t^2)^2. numpy runs tan on
    # SIMD where the CPU has it, and cos and sin on scalar libm
    np.divide(r, wavelength, out=tmp)
    np.rint(tmp, out=out.real)
    tmp -= out.real
    tmp *= 0.5 * np.pi
    np.tan(tmp, out=tmp)
    np.multiply(tmp, 2.0, out=out.imag)
    np.square(tmp, out=tmp)
    np.subtract(1.0, tmp, out=out.real)
    np.square(out, out=out)
    # the half-angle form's (1 + t^2)^2 joins the amplitude lambda / (4 pi r)
    tmp += 1.0
    np.square(tmp, out=tmp)
    tmp *= r
    np.divide(wavelength / (4.0 * np.pi), tmp, out=tmp)
    out *= tmp
    return out


_TILE = 1 << 15  # channel entries of one task's tile: about 1 MB of buffers per thread
# each thread's tile buffers, kept across drops: per-task ones took reduced 2.2-3.2 -> 3.0-4.7 ms
_local = threading.local()


@cache
def _pool() -> ThreadPoolExecutor:
    """The station pool of min(WORKERS, STREAM_THREADS) - 1 threads, made on first use."""
    return ThreadPoolExecutor(min(WORKERS, STREAM_THREADS) - 1,
                              thread_name_prefix="losmimo-station")


# a forked child inherits the pool but none of its threads: it makes its own
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pool.cache_clear)


@dataclass(frozen=True)
class CrossGram:
    """One drop's cross-Gram products, with its serving-Gram inverses taken
    on first use (only ZF needs them; MR allows K > M).

    z[l, lp][k, k'] = <g of user (l, k), g of user (lp, k')>, both channels
    taken at base station l; z[l, l] is cell l's Gram matrix. The closed
    forms (`powerctl`) and the Monte Carlo oracle (`mcsim.simulate`) both
    read the drop from z alone.
    """

    z: np.ndarray  # (L, L, K, K) complex

    @cached_property
    def igram(self) -> np.ndarray:
        """(L, K, K) guarded serving-Gram inverses, taken in one call on the reading thread."""
        own = np.arange(len(self.z))
        return gram_inverse(self.z[own, own])

    @property
    def inv_diag(self) -> np.ndarray:
        """(L, K) real diagonals of the serving-Gram inverses."""
        return np.real(np.diagonal(self.igram, axis1=1, axis2=2))


def tile_width(cells: int, antennas: int, users: int) -> int:
    """Antennas in one task's tile: at most max(_TILE // (L K), K) of a
    station's M, so that a tile of at least K antennas keeps the tile
    products within L^2 K (M + K) entries."""
    return min(max(_TILE // (cells * users), users), antennas)


def stream_cross_gram(antennas: np.ndarray, users: np.ndarray, wavelength: float) -> CrossGram:
    """Cross-Gram products of the channels between the antennas (L, M, 3) and
    the users (L, K, 3) of one drop, without the (L, L, M, K) tensor.

    Each station's antennas are cut into tiles of `tile_width` antennas.
    Task (l, t) builds tile t's (n, L K) channels at station l with
    `station_channels`, from positions relative to the station's array
    center, in buffers its thread keeps across drops, and keeps their
    product G_t[l, l]^H G_t[l, :] as one (K, n) (n, L K) product.
    min(WORKERS, STREAM_THREADS, tasks) threads deal the tasks round-robin,
    the calling thread taking the first share and the pool the rest; an
    error in any share is raised once every share has ended. The tile
    products are summed in tile order, so z is bit-identical for any worker
    count."""
    cells = len(antennas)
    if len(users) != cells:
        raise ConfigurationError("arrays and drop disagree on cell count")
    if antennas.shape[-1] != 3 or users.shape[-1] != 3:
        raise ConfigurationError(f"antennas {antennas.shape} and users {users.shape} "
                                 "need 3 coordinates on their last axis")
    if 0 in antennas.shape[:2] or 0 in users.shape[:2]:
        raise ConfigurationError(f"antennas {antennas.shape} and users {users.shape} "
                                 "need at least one station, antenna and user")
    if not (np.isfinite(antennas).all() and np.isfinite(users).all()):
        raise ConfigurationError("antenna and user positions must be finite")
    m, k = antennas.shape[1], users.shape[1]
    width = tile_width(cells, m, k)
    tiles = len(range(0, m, width))
    centers = antennas.mean(axis=1)
    # every cell's users as seen from each station's array center: (L, L K, 3)
    seen = users.reshape(1, -1, 3) - centers[:, None]
    parts = np.empty((cells, tiles, k, cells, k), dtype=np.complex128)
    tasks = [(l, t) for l in range(cells) for t in range(tiles)]

    def share(tasks):
        size = cells * width * k
        buffers = getattr(_local, "buffers", None)
        if buffers is None or len(buffers[0]) != size:
            buffers = (np.empty(size, dtype=np.complex128), np.empty(size), np.empty(size))
            _local.buffers = buffers
        for l, t in tasks:
            tile = antennas[l, t * width:(t + 1) * width] - centers[l]
            views = (b[:len(tile) * cells * k].reshape(len(tile), -1) for b in buffers)
            block = station_channels(tile, seen[l], wavelength, *views)
            serving = block[:, l * k:(l + 1) * k].conj()
            np.matmul(serving.T, block, out=parts[l, t].reshape(k, -1))

    workers = min(WORKERS, STREAM_THREADS, len(tasks))
    futures = [_pool().submit(share, tasks[w::workers]) for w in range(1, workers)]
    try:
        share(tasks[::workers])
    finally:
        wait(futures)
    for future in futures:
        future.result()
    z = np.empty((cells, cells, k, k), dtype=np.complex128)
    # numpy adds along the outer tile axis in sequence; z is written through
    # its (L, K, L, K) view, the tile products' layout
    np.sum(parts, axis=1, out=z.transpose(0, 2, 1, 3))
    return CrossGram(z=z)
