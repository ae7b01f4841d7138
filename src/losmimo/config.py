"""Scenario configuration: flat `key = value` text files.

Keys mirror the simulation-parameter table; `#` starts a comment. Parsing
then re-serializing is idempotent.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from . import channel
from .channel import CHANNEL_RTOL, closest_distance_m, link_budget, tile_width, wavelength_m
from .errors import ConfigurationError
from .geometry import cluster_reach, inradius
from .linproc import DOWNLINK, UPLINK

# complex entries a drop may hold, counted in `validate`: 1 GiB of complex128
# (3.7 M at the published Table 1 scale, and 65 520 more a channel thread)
MAX_CHANNEL_ENTRIES = 2**26
_SCHEMES = ("MR", "ZF")
_LINKS = ("DL", "UL")


@dataclass
class ScenarioConfig:
    cells: int = 7
    antennas_per_cell: int = 4096
    users_per_cell: int = 18
    carrier_ghz: float = 60.0
    bandwidth_hz: float = 50e6
    bs_noise_figure_db: float = 9.0
    mobile_noise_figure_db: float = 9.0
    bs_power_w: float = 2.0
    mobile_power_w: float = 0.2
    bs_array_height_m: float = 30.0
    user_height_m: float = 1.5
    cell_radius_m: float = 200.0
    min_bs_distance_m: float = 10.0
    drops: int = 50
    seed: int = 1
    schemes: str = "MR,ZF"
    links: str = "DL,UL"
    single_cell_series: bool = True

    def scheme_list(self) -> list[str]:
        return [s.strip() for s in self.schemes.split(",") if s.strip()]

    def link_list(self) -> list[str]:
        return [s.strip() for s in self.links.split(",") if s.strip()]

    def rho(self) -> dict[str, float]:
        """Normalized SNR of each link from the link budget: {DL: rho_dl, UL: rho_ul}."""
        rho_dl, rho_ul = link_budget(
            self.bandwidth_hz, self.bs_power_w, self.mobile_power_w,
            self.bs_noise_figure_db, self.mobile_noise_figure_db,
        )
        return {DOWNLINK: rho_dl, UPLINK: rho_ul}

    def validate(self) -> None:
        for f in fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise ConfigurationError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        positive = [
            "antennas_per_cell", "users_per_cell", "carrier_ghz", "bandwidth_hz",
            "bs_power_w", "mobile_power_w", "cell_radius_m", "drops",
        ]
        for name in positive:
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive, got {getattr(self, name)}")
        if self.cells not in (1, 7):
            raise ConfigurationError(f"cells must be 1 or 7, got {self.cells}")
        # tile products (at most L^2 K (M + K)), z and four (L K)^2 power-control
        # matrices, and each channel thread's tile buffers: one complex and two
        # real arrays of n L K entries, as many as 2 n L K complex ones
        cells, antennas, users = self.cells, self.antennas_per_cell, self.users_per_cell
        width = tile_width(cells, antennas, users)
        # as many threads as the stream may run on any host, not on this one
        threads = min(channel.STREAM_THREADS, cells * -(-antennas // width))
        entries = cells**2 * users * (antennas + 6 * users) + threads * 2 * width * cells * users
        if entries > MAX_CHANNEL_ENTRIES:
            raise ConfigurationError(
                f"cells, antennas_per_cell and users_per_cell give {entries} entries per drop "
                f"(cells^2 * users_per_cell * (antennas_per_cell + 6 * users_per_cell), and "
                f"2 * n * cells * users_per_cell for each of {threads} channel threads with "
                f"tiles of n = {width} antennas), over the limit of {MAX_CHANNEL_ENTRIES}")
        if not 0 <= self.min_bs_distance_m < inradius(self.cell_radius_m):  # disk inside the cell
            raise ConfigurationError("min_bs_distance_m must be in [0, sqrt(3)/2 * cell_radius_m)")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be nonnegative, got {self.seed}")
        for key, names, known in (("schemes", self.scheme_list(), _SCHEMES),
                                  ("links", self.link_list(), _LINKS)):
            for s in names:
                if s not in known:
                    raise ConfigurationError(f"unknown {key[:-1]} {s!r}")
            if len(set(names)) < len(names):
                raise ConfigurationError(f"{key} lists an entry twice: {getattr(self, key)!r}")
        if not self.scheme_list() or not self.link_list():
            raise ConfigurationError("at least one scheme and one link required")
        if "ZF" in self.scheme_list() and self.users_per_cell > self.antennas_per_cell:
            raise ConfigurationError("ZF requires users_per_cell <= antennas_per_cell")
        self._check_geometry()
        self.rho()  # the link budget rejects an SNR that is not finite and positive

    def _check_geometry(self) -> None:
        """Reject a geometry whose channel entries overflow or vanish: the
        wavelength, the largest antenna-user distance in wavelengths and the
        channel amplitude lambda/(4 pi r) at that distance must be finite and
        nonzero. The smallest antenna-user distance must be at least
        `channel.closest_distance_m` of the array radius, and the cluster's
        reach from an array center at most `channel.MAX_REACH_WAVELENGTHS`,
        where every channel entry keeps its accuracy."""
        wl = np.float64(wavelength_m(self.carrier_ghz))
        if not 0.0 < wl < np.inf:
            raise ConfigurationError(f"carrier_ghz gives a wavelength of {wl} m, "
                                     "not finite and nonzero")
        keys = ("carrier_ghz, antennas_per_cell, cell_radius_m, bs_array_height_m "
                "and user_height_m")
        # an extreme value overflows to inf or underflows to 0, which is
        # rejected below rather than warned about
        with np.errstate(over="ignore", under="ignore"):
            array_radius = self.antennas_per_cell * wl / (4.0 * np.pi)
            spread = cluster_reach(self.cells, self.cell_radius_m)
            reach = array_radius + spread
            rise = np.float64(self.bs_array_height_m) - self.user_height_m
            # summed squares, as the channel build takes them
            distance = np.sqrt(reach * reach + rise * rise)
            cycles = distance / wl
            reach_cycles = reach / wl
            amplitude = wl / (4.0 * np.pi * distance)
            least = closest_distance_m(array_radius, wl)
        if not cycles < np.inf:
            raise ConfigurationError(f"{keys} give a largest antenna-user distance of "
                                     f"{distance} m ({cycles} wavelengths), not finite")
        if not amplitude > 0.0:
            raise ConfigurationError(f"{keys} give a channel amplitude lambda/(4 pi r) of "
                                     f"{amplitude} at {distance} m, not nonzero")
        # users keep min_bs_distance_m from their own array's center and more
        # from every other, and stay within `spread` of every center, so this
        # is as close as one can come to an antenna
        gap = max(self.min_bs_distance_m - array_radius, array_radius - spread, 0.0)
        closest = np.hypot(gap, rise)
        if not closest >= least:
            raise ConfigurationError(
                f"bs_array_height_m, user_height_m, min_bs_distance_m, antennas_per_cell and "
                f"carrier_ghz let a user come within {closest} m of an antenna, closer than "
                f"the {least} m at which its channel keeps a relative error of "
                f"{CHANNEL_RTOL} (the array radius is {array_radius} m): raise "
                "min_bs_distance_m or set the heights apart")
        if not reach_cycles <= channel.MAX_REACH_WAVELENGTHS:
            raise ConfigurationError(
                f"carrier_ghz, cells, cell_radius_m and antennas_per_cell put users up to "
                f"{reach} m ({reach_cycles} wavelengths) from an array center, over the "
                f"{channel.MAX_REACH_WAVELENGTHS} wavelengths within which every channel entry "
                f"keeps a relative error of {CHANNEL_RTOL}: lower carrier_ghz or cell_radius_m")


_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}


def _parse_value(name: str, raw: str):
    kind = _FIELD_TYPES[name]
    if kind is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigurationError(f"bad boolean for {name}: {raw!r}")
    if kind is int:
        return int(raw)
    if kind is float:
        return float(raw)
    return raw


def parse_config(text: str) -> ScenarioConfig:
    cfg = ScenarioConfig()
    seen: dict[str, int] = {}  # key -> line that set it
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigurationError(f"line {lineno}: key {key!r} already set on line {seen[key]}")
        seen[key] = lineno
        try:
            setattr(cfg, key, _parse_value(key, raw))
        except ValueError as exc:
            raise ConfigurationError(f"line {lineno}: bad value for {key}: {raw!r}") from exc
    cfg.validate()
    return cfg


def load_config(path) -> ScenarioConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def serialize_config(cfg: ScenarioConfig) -> str:
    lines = []
    for f in fields(ScenarioConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
