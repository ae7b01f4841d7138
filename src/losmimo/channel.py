"""Spherical-wave LoS channels, their cross-Gram products, and link budgets.

Channel entry for antenna m at distance r:

    g_m = (lambda / (4 pi)) * exp(i 2 pi r / lambda) / r

The lambda/(4 pi) amplitude makes the per-antenna power gain equal to the
inverse free-space path loss, so the normalized SNRs rho_dl / rho_ul are
plain transmit-power-to-noise-power ratios.

Power control sees a drop only through its `CrossGram`: `cross_gram` of
the (L, L, M, K) channel tensor, or `stream_cross_gram` straight from the
geometry. The geometry is plain arrays: `antennas` (L, M, 3) holds each base
station's antenna positions, `users` (L, K, 3) each cell's user positions.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cache, cached_property, partial

import numpy as np

from .errors import ConfigurationError, SingularGeometryError
from .linproc import gram_inverse

C_LIGHT = 299792458.0  # m/s
MIN_ANTENNA_DISTANCE_M = 1e-9  # a user closer than this to an antenna has no channel
# threads that build a drop's channels, at most L: the usable CPUs, or all where unknown
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


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


@dataclass(frozen=True)
class ChannelSet:
    """`build_channel_set`'s result: all L*L channel matrices of one drop.
    Every consumer takes the plain array; the type remains only because
    perfbench's `_count_exponentials` hook reads `.matrices` from this result.

    matrices[l, lp] is the M x K matrix of channels from the K users served
    by cell lp to the M antennas of base station l.
    """

    matrices: np.ndarray  # (L, L, M, K) complex128


def station_channels(
    antennas: np.ndarray,
    users: np.ndarray,
    wavelength: float,
    out: np.ndarray,
    r: np.ndarray,
    tmp: np.ndarray,
) -> np.ndarray:
    """Fill `out` (L, M, K) with the channels from every cell's users (L, K, 3)
    to one base station's antennas (M, 3), in place.

    `r` and `tmp` are float (L, M, K) scratch buffers; on return `r` holds
    the antenna-user distances. Entry (cell, m, k) is g_m of user (cell, k).
    """
    ax, ay, az = (col[None, :, None] for col in antennas.T)
    ux, uy, uz = (col[:, None, :] for col in np.moveaxis(users, -1, 0))
    np.subtract(ax, ux, out=tmp)
    np.multiply(tmp, tmp, out=r)
    for a, u in ((ay, uy), (az, uz)):
        np.subtract(a, u, out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        r += tmp
    np.sqrt(r, out=r)
    if r.min() < MIN_ANTENNA_DISTANCE_M:
        raise SingularGeometryError("user position coincides with an antenna position")
    np.multiply(2j * np.pi, r, out=out)
    out /= wavelength
    np.exp(out, out=out)
    out *= wavelength / (4.0 * np.pi)
    out /= r
    return out


_local = threading.local()  # each thread's station buffers, kept across drops


@cache
def _pool() -> ThreadPoolExecutor:
    """The station pool of WORKERS - 1 threads, made on first use."""
    return ThreadPoolExecutor(WORKERS - 1, thread_name_prefix="losmimo-station")


# a forked child inherits the pool but none of its threads: it makes its own
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _each_station(antennas: np.ndarray, users: np.ndarray, wavelength: float, visit) -> None:
    """Call visit(l, block) on each base station l's (L, M, K) channels from
    the antennas (L, M, 3) and the users (L, K, 3), built by
    `station_channels` into a per-thread buffer that the thread's next station
    overwrites. min(WORKERS, L) threads share the stations round-robin, the
    calling thread taking the first share and the pool the rest; an error in
    any share is raised once every share has ended."""
    cells = len(antennas)
    if len(users) != cells:
        raise ConfigurationError("arrays and drop disagree on cell count")
    if antennas.shape[-1] != 3 or users.shape[-1] != 3:
        raise ConfigurationError(f"antennas {antennas.shape} and users {users.shape} "
                                 "need 3 coordinates on their last axis")
    if 0 in antennas.shape[:2] or 0 in users.shape[:2]:
        raise ConfigurationError(f"antennas {antennas.shape} and users {users.shape} "
                                 "need at least one station, antenna and user")
    shape = (cells, antennas.shape[1], users.shape[1])

    def share(stations):
        buffers = getattr(_local, "buffers", None)
        if buffers is None or buffers[0].shape != shape:
            buffers = (np.empty(shape, dtype=np.complex128), np.empty(shape), np.empty(shape))
            _local.buffers = buffers
        for l in stations:
            visit(l, station_channels(antennas[l], users, wavelength, *buffers))

    workers = min(WORKERS, cells)
    shares = [range(w, cells, workers) for w in range(workers)]
    futures = [_pool().submit(share, stations) for stations in shares[1:]]
    try:
        share(shares[0])
    finally:
        wait(futures)
    for future in futures:
        future.result()


def build_channel_set(antennas: np.ndarray, users: np.ndarray, wavelength: float) -> ChannelSet:
    """The full L x L grid of channel matrices between the antennas (L, M, 3)
    and the users (L, K, 3) of one drop."""
    cells, m = antennas.shape[:2]
    matrices = np.empty((cells, cells, m, users.shape[1]), dtype=np.complex128)
    _each_station(antennas, users, wavelength, lambda l, block: np.copyto(matrices[l], block))
    return ChannelSet(matrices=matrices)


@dataclass(frozen=True)
class CrossGram:
    """One drop's cross-Gram products, with its serving-Gram inverses taken
    on first use (only ZF needs them; MR allows K > M).

    z[l, lp][k, k'] = <g of user (l, k), g of user (lp, k')>, both channels
    taken at base station l; z[l, l] is cell l's Gram matrix, factorized once
    (`gram_inverse`).
    """

    z: np.ndarray  # (L, L, K, K) complex

    @cached_property
    def igram(self) -> np.ndarray:
        """(L, K, K) guarded serving-Gram inverses, computed on the reading thread."""
        return np.stack([gram_inverse(self.z[l, l]) for l in range(len(self.z))])

    @property
    def inv_diag(self) -> np.ndarray:
        """(L, K) real diagonals of the serving-Gram inverses."""
        return np.real(np.diagonal(self.igram, axis1=1, axis2=2))


def _gram_row(z: np.ndarray, l: int, block: np.ndarray) -> None:
    """z[l] = G[l, l]^H G[l, :] from base station l's (L, M, K) channels."""
    np.matmul(block[l].conj().T, block, out=z[l])


def cross_gram(channels: np.ndarray) -> CrossGram:
    """Cross-Gram products of the (L, L, M, K) channels, one serving cell at
    a time so the only transient is that cell's conjugated M x K matrix."""
    cells, users = channels.shape[0], channels.shape[3]
    z = np.empty((cells, cells, users, users), dtype=np.complex128)
    for l, block in enumerate(channels):
        _gram_row(z, l, block)
    return CrossGram(z=z)


def stream_cross_gram(antennas: np.ndarray, users: np.ndarray, wavelength: float) -> CrossGram:
    """`cross_gram` of the channels between the antennas (L, M, 3) and the
    users (L, K, 3) of one drop without the (L, L, M, K) tensor: each
    station's channels become its row of z as soon as they are built, with the
    row function of `cross_gram`, so z is bit-identical to `cross_gram` of
    `build_channel_set` for any worker count."""
    cells, k = len(antennas), users.shape[1]
    z = np.empty((cells, cells, k, k), dtype=np.complex128)
    _each_station(antennas, users, wavelength, partial(_gram_row, z))
    return CrossGram(z=z)
