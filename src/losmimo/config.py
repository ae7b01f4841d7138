"""Scenario configuration: flat `key = value` text files.

Keys mirror the simulation-parameter table; `#` starts a comment. Parsing
then re-serializing is idempotent.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .channel import link_budget, wavelength_m
from .errors import ConfigurationError
from .geometry import cluster_reach, inradius
from .linproc import DOWNLINK, UPLINK

# L^2 M K complex channel entries: the tensor `verify` and `dump-channels`
# hold, 1 GiB of complex128 (the published Table 1 scale is 3.6 M entries)
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
            self.carrier_ghz, self.bandwidth_hz, self.bs_power_w, self.mobile_power_w,
            self.bs_noise_figure_db, self.mobile_noise_figure_db,
        )
        return {DOWNLINK: rho_dl, UPLINK: rho_ul}

    def validate(self) -> None:
        for f in fields(self):
            if f.type in (float, "float") and not math.isfinite(getattr(self, f.name)):
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
        entries = self.cells**2 * self.antennas_per_cell * self.users_per_cell
        if entries > MAX_CHANNEL_ENTRIES:
            raise ConfigurationError(
                f"cells, antennas_per_cell and users_per_cell give {entries} channel entries "
                f"(cells^2 * antennas_per_cell * users_per_cell), over the limit of "
                f"{MAX_CHANNEL_ENTRIES}")
        if not 0 <= self.min_bs_distance_m < inradius(self.cell_radius_m):  # disk inside the cell
            raise ConfigurationError("min_bs_distance_m must be in [0, sqrt(3)/2 * cell_radius_m)")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be nonnegative, got {self.seed}")
        for s in self.scheme_list():
            if s not in _SCHEMES:
                raise ConfigurationError(f"unknown scheme {s!r}")
        for s in self.link_list():
            if s not in _LINKS:
                raise ConfigurationError(f"unknown link {s!r}")
        for key, names in (("schemes", self.scheme_list()), ("links", self.link_list())):
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
        nonzero."""
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
            reach = array_radius + cluster_reach(self.cells, self.cell_radius_m)
            rise = np.float64(self.bs_array_height_m) - self.user_height_m
            # summed squares, as the channel build takes them
            distance = np.sqrt(reach * reach + rise * rise)
            cycles = distance / wl
            amplitude = wl / (4.0 * np.pi * distance)
        if not cycles < np.inf:
            raise ConfigurationError(f"{keys} give a largest antenna-user distance of "
                                     f"{distance} m ({cycles} wavelengths), not finite")
        if not amplitude > 0.0:
            raise ConfigurationError(f"{keys} give a channel amplitude lambda/(4 pi r) of "
                                     f"{amplitude} at {distance} m, not nonzero")


_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}


def _parse_value(name: str, raw: str):
    kind = _FIELD_TYPES[name]
    if kind in (bool, "bool"):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigurationError(f"bad boolean for {name}: {raw!r}")
    if kind in (int, "int"):
        return int(raw)
    if kind in (float, "float"):
        return float(raw)
    return raw


def parse_config(text: str) -> ScenarioConfig:
    cfg = ScenarioConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
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
