"""End-to-end pipeline: geometry -> channels -> power control -> CDF data.

`solve_drop` makes a drop's per-user SINR series of the published experiment:
system-wide max-min power control ("MR DL", "MR UL", "ZF DL", "ZF UL") plus
the center cell's users under per-cell single-cell ZF max-min evaluated with
the full multi-cell formulas ("ZF DL-1", "ZF UL-1"); `run_scenario` their CDFs.
"""

import csv
import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channel import CrossGram, stream_cross_gram, wavelength_m
from .config import ScenarioConfig
from .errors import SingularChannelError
from .geometry import circular_array, drop_users, hex_centers
from .linproc import DOWNLINK, UPLINK, ZF
from .mcsim import simulate
from .powerctl import (MaxminResult, PcSystem, build_pc_system, maxmin_common_target,
                       single_cell_zf_maxmin)

log = logging.getLogger(__name__)

CENTER_CELL = 0
MAX_RESAMPLES = 100


@dataclass
class CdfTable:
    """Sorted per-series SINR samples in dB with empirical probabilities.

    `add` collects a series' samples; `finalize`, called once, joins them
    into `series` and sorts them.
    """

    series: dict[str, np.ndarray] = field(default_factory=dict)
    _pending: dict[str, list[np.ndarray]] = field(default_factory=dict, init=False, repr=False)

    def add(self, name: str, values_db: np.ndarray) -> None:
        self._pending.setdefault(name, []).append(np.ravel(values_db))

    def finalize(self) -> None:
        pending, self._pending = self._pending, {}
        # one series at a time, so only one series' samples are held twice
        for name in list(pending):
            vals = np.concatenate(pending.pop(name))
            vals.sort()
            self.series[name] = vals

    def rows(self):
        for name in self.series:
            vals = self.series[name]
            n = len(vals)
            for i, v in enumerate(vals):
                yield name, v, (i + 1) / n

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["series", "sinr_db", "cdf"])
            for name, v, p in self.rows():
                writer.writerow([name, repr(float(v)), repr(float(p))])


def _to_db(values: np.ndarray) -> np.ndarray:
    return 10.0 * np.log10(values)


@dataclass(frozen=True)
class Series:
    """One series of a drop, as `run` reports it."""

    eta: np.ndarray  # (L, K) powers
    sinr: np.ndarray  # their `PcSystem.sinr`: (L, K), or the center cell's (K,) for single-cell ZF
    maxmin: MaxminResult | None = None  # the max-min series' solver result


@dataclass(frozen=True)
class Drop:
    """One drop's cross-Gram products, the system of each (scheme, link) its
    series read, and those series, computed on first read: one max-min series
    and `verify` check per configured pair, then with `single_cell` "ZF DL-1"
    and "ZF UL-1", on both links whatever the configured ones."""

    xg: CrossGram
    systems: dict[tuple[str, str], PcSystem]
    pairs: tuple[tuple[str, str], ...]
    single_cell: bool

    @cached_property
    def series(self) -> dict[str, Series]:
        series = {}
        for scheme, link in self.pairs:
            system = self.systems[scheme, link]
            result = maxmin_common_target(system)
            eta = result.eta.reshape(system.cells, system.users_per_cell)
            series[f"{scheme} {link}"] = Series(eta, system.sinr(eta), result)
        for link in (DOWNLINK, UPLINK) if self.single_cell else ():
            eta = single_cell_zf_maxmin(self.xg.inv_diag, link)
            series[f"ZF {link}-1"] = Series(eta, self.systems[ZF, link].sinr(eta)[CENTER_CELL])
        return series


def solve_drop(cfg: ScenarioConfig, seed: int) -> Drop:
    """Drop `seed` of `cfg`: its users on the configured cells and arrays,
    their cross-Gram products, streamed from the channels without holding
    them whole, and the `PcSystem` of each (scheme, link) its series read."""
    wl = wavelength_m(cfg.carrier_ghz)
    centers = hex_centers(cfg.cells, cfg.cell_radius_m)
    antennas = circular_array(cfg.antennas_per_cell, wl, cfg.bs_array_height_m, centers)
    users = drop_users(centers, cfg.cell_radius_m, cfg.users_per_cell, cfg.min_bs_distance_m,
                       cfg.user_height_m, seed)
    xg = stream_cross_gram(antennas, users, wl)
    pairs = tuple((s, li) for s in cfg.scheme_list() for li in cfg.link_list())
    single_cell = cfg.single_cell_series and ZF in cfg.scheme_list()
    needed = dict.fromkeys(pairs + ((ZF, DOWNLINK), (ZF, UPLINK)) * single_cell)
    rho = cfg.rho()
    return Drop(xg, {(s, li): build_pc_system(xg, s, li, rho[li]) for s, li in needed}, pairs,
                single_cell)


def run_scenario(cfg: ScenarioConfig) -> tuple[CdfTable, dict]:
    """Run all configured drops and aggregate per-user SINRs into CDF series.

    A drop that raises `SingularChannelError` at any stage is re-sampled
    with a fresh derived seed and counted in the summary.
    """
    cfg.validate()
    seed_stream = np.random.default_rng(cfg.seed)
    table = CdfTable()
    resampled = completed = 0
    while completed < cfg.drops:
        drop_seed = int(seed_stream.integers(2**63))
        try:
            series = solve_drop(cfg, drop_seed).series
        except SingularChannelError as exc:
            resampled += 1
            log.warning("drop seed %d re-sampled (%d so far): %s", drop_seed, resampled, exc)
            if resampled > MAX_RESAMPLES:
                raise SingularChannelError(
                    f"{exc} on {resampled} re-sampled drops ({completed} completed); check "
                    "carrier_ghz, antennas_per_cell, users_per_cell and cell_radius_m, "
                    "which set how well the array resolves the users"
                ) from exc
            continue
        for name, result in series.items():
            table.add(name, _to_db(result.sinr))
        completed += 1
    table.finalize()
    return table, {"drops": completed, "resampled": resampled}


SIGMA_THRESHOLD = 5.0


@dataclass(frozen=True)
class VerificationEntry:
    scheme: str
    link: str
    deviation: np.ndarray  # (L, K) |simulated - closed-form SINR| in standard errors

    @property
    def max_dev_sigma(self) -> float:
        return float(np.max(self.deviation))

    @property
    def worst_user(self) -> tuple[int, int]:
        """(cell, user) of the largest deviation."""
        cell, user = np.unravel_index(np.argmax(self.deviation), self.deviation.shape)
        return int(cell), int(user)

    def passed(self, threshold: float) -> bool:
        return self.max_dev_sigma < threshold


@dataclass(frozen=True)
class VerificationReport:
    entries: list[VerificationEntry]
    threshold: float

    @property
    def passed(self) -> bool:
        return all(e.passed(self.threshold) for e in self.entries)


def verify(cfg: ScenarioConfig, n_symbols: int) -> VerificationReport:
    """Closed-form vs Monte Carlo agreement over one configured drop.

    The drop is `run`'s (`solve_drop`), and the oracle simulates it from its
    cross-Gram products `drop.xg.z` alone, through no eigenvector phase that
    an eigensolver picks. Uses uniform admissible powers (downlink 1/K per
    user, uplink full power) and reports every user's deviation in
    standard-error units, which must be below `SIGMA_THRESHOLD`.
    """
    cfg.validate()
    if n_symbols < 2:
        raise ValueError("verification needs n_symbols >= 2 to estimate a standard error")
    drop = solve_drop(cfg, cfg.seed)
    shape = (cfg.cells, cfg.users_per_cell)
    eta = {DOWNLINK: np.full(shape, 1.0 / cfg.users_per_cell), UPLINK: np.ones(shape)}
    rho = cfg.rho()
    checks = [(scheme, link, eta[link], rho[link]) for scheme, link in drop.pairs]
    results = simulate(drop.xg.z, checks, n_symbols, cfg.seed)
    entries = []
    for (scheme, link), result in zip(drop.pairs, results):
        closed = drop.systems[scheme, link].sinr(eta[link])
        sigma = np.where(result.sinr_stderr > 0, result.sinr_stderr, np.inf)
        entries.append(VerificationEntry(scheme, link, np.abs(result.sinr - closed) / sigma))
    return VerificationReport(entries=entries, threshold=SIGMA_THRESHOLD)
