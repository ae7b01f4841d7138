"""End-to-end pipeline: geometry -> channels -> power control -> CDF data.

Reproduces the published experiment's data product: per-user SINR CDFs for
system-wide max-min power control ("MR DL", "MR UL", "ZF DL", "ZF UL") plus
the center cell's users under per-cell single-cell ZF max-min evaluated with
the full multi-cell formulas ("ZF DL-1", "ZF UL-1").
"""

import csv
import logging
from dataclasses import dataclass, field

import numpy as np

from .channel import CrossGram, build_channel_set, cross_gram, stream_cross_gram
from .channel import wavelength_m
from .config import ScenarioConfig
from .errors import SingularChannelError
from .geometry import circular_array, drop_users, hex_centers
from .linproc import DOWNLINK, MR, UPLINK, ZF
from .mcsim import simulate
from .powerctl import PcSystem, build_pc_system, maxmin_common_target, single_cell_zf_maxmin

log = logging.getLogger(__name__)

CENTER_CELL = 0
MAX_RESAMPLES = 100
# shared by every run, so a kept table holds no name strings of its own
SERIES_NAMES = {(s, li): f"{s} {li}" for s in (MR, ZF) for li in (DOWNLINK, UPLINK)}


@dataclass
class CdfTable:
    """Sorted per-series SINR samples in dB with empirical probabilities.

    `add` collects a series' samples; `finalize`, called once, joins them
    into `series` and sorts them.
    """

    series: dict[str, np.ndarray] = field(default_factory=dict)
    _pending: dict[str, list[np.ndarray]] = field(default_factory=dict, init=False, repr=False)

    def add(self, name: str, values_db: np.ndarray) -> None:
        self._pending.setdefault(name, []).append(values_db)

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


def _geometry(cfg: ScenarioConfig) -> tuple[float, np.ndarray, np.ndarray]:
    """Wavelength, (L, 2) cell centers and (L, M, 3) base-station antenna
    positions, built once and shared by all drops."""
    wl = wavelength_m(cfg.carrier_ghz)
    centers = hex_centers(cfg.cells, cfg.cell_radius_m)
    antennas = np.empty((cfg.cells, cfg.antennas_per_cell, 3))  # filled, not stacked: no copy
    for l, center in enumerate(centers):
        antennas[l] = circular_array(cfg.antennas_per_cell, wl, cfg.bs_array_height_m, center)
    return wl, centers, antennas


@dataclass(frozen=True)
class Drop:
    """One drop's cross-Gram products, the power-control system of each
    requested (scheme, link) pair, and its (L, L, M, K) channels when kept."""

    xg: CrossGram
    systems: dict[tuple[str, str], PcSystem]
    channels: np.ndarray | None


def solve_drop(cfg: ScenarioConfig, geometry: tuple, seed: int,
               pairs: list[tuple[str, str]], keep_channels: bool = False) -> Drop:
    """The users of drop `seed` on `geometry` (`_geometry(cfg)`), their
    cross-Gram products and the `PcSystem` of each (scheme, link) in `pairs`.
    Without `keep_channels` the channels are streamed into the cross-Gram and
    never held whole; with it they are kept, and the bits are the same."""
    wl, centers, antennas = geometry
    users = drop_users(centers, cfg.cell_radius_m, cfg.users_per_cell, cfg.min_bs_distance_m,
                       cfg.user_height_m, seed)
    channels = build_channel_set(antennas, users, wl).matrices if keep_channels else None
    xg = stream_cross_gram(antennas, users, wl) if channels is None else cross_gram(channels)
    rho = cfg.rho()
    return Drop(xg, {(s, li): build_pc_system(xg, s, li, rho[li]) for s, li in pairs}, channels)


def run_scenario(cfg: ScenarioConfig) -> tuple[CdfTable, dict]:
    """Run all configured drops and aggregate per-user SINRs into CDF series.

    Drops that hit a rank-deficient ZF Gram matrix are re-sampled with a
    fresh derived seed and counted in the summary.
    """
    cfg.validate()
    combos = [(s, li) for s in cfg.scheme_list() for li in cfg.link_list()]
    single_cell = cfg.single_cell_series and ZF in cfg.scheme_list()
    # the single-cell series are evaluated with both multi-cell ZF systems
    pairs = list(dict.fromkeys(combos + ([(ZF, DOWNLINK), (ZF, UPLINK)] if single_cell else [])))

    geometry = _geometry(cfg)
    seed_stream = np.random.default_rng(cfg.seed)
    table = CdfTable()
    resampled = 0
    completed = 0
    while completed < cfg.drops:
        drop_seed = int(seed_stream.integers(2**63))
        try:
            drop = solve_drop(cfg, geometry, drop_seed, pairs)
            systems = drop.systems
            drop_series = {
                SERIES_NAMES[p]: _to_db(systems[p].sinr(maxmin_common_target(systems[p]).eta))
                for p in combos
            }
            if single_cell:
                for link in (DOWNLINK, UPLINK):
                    eta = single_cell_zf_maxmin(drop.xg.inv_diag, link)
                    drop_series[f"ZF {link}-1"] = _to_db(systems[ZF, link].sinr(eta)[CENTER_CELL])
        except SingularChannelError as exc:
            resampled += 1
            log.warning("rank-deficient drop re-sampled (%d so far)", resampled)
            if resampled > MAX_RESAMPLES:
                raise SingularChannelError(
                    f"{exc} on {resampled} re-sampled drops ({completed} completed); check "
                    "carrier_ghz, antennas_per_cell, users_per_cell and cell_radius_m, "
                    "which set how well the array resolves the users"
                ) from exc
            continue
        for name, vals in drop_series.items():
            table.add(name, vals)
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

    Uses uniform admissible powers (downlink 1/K per user, uplink full
    power) and reports every user's deviation in standard-error units, which
    must be below `SIGMA_THRESHOLD`.
    """
    cfg.validate()
    if n_symbols < 2:
        raise ValueError("verification needs n_symbols >= 2 to estimate a standard error")
    pairs = [(s, li) for s in cfg.scheme_list() for li in cfg.link_list()]
    drop = solve_drop(cfg, _geometry(cfg), cfg.seed, pairs, keep_channels=True)
    shape = (cfg.cells, cfg.users_per_cell)
    eta = {DOWNLINK: np.full(shape, 1.0 / cfg.users_per_cell), UPLINK: np.ones(shape)}
    rho = cfg.rho()

    checks = [(scheme, link, eta[link], rho[link]) for scheme, link in drop.systems]
    results = simulate(drop.channels, checks, n_symbols, cfg.seed)
    entries = []
    for ((scheme, link), system), result in zip(drop.systems.items(), results):
        closed = system.sinr(eta[link])
        sigma = np.where(result.sinr_stderr > 0, result.sinr_stderr, np.inf)
        dev = np.abs(result.sinr - closed) / sigma
        entries.append(VerificationEntry(scheme=scheme, link=link, deviation=dev))
    return VerificationReport(entries=entries, threshold=SIGMA_THRESHOLD)
