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

from .channel import ChannelSet, build_channel_set, wavelength_m
from .config import ScenarioConfig
from .errors import SingularChannelError
from .geometry import circular_array, drop_users, hex_centers
from .linproc import DOWNLINK, MR, UPLINK, ZF, dl_allocation, ul_allocation
from .mcsim import simulate
from .powerctl import (
    build_pc_system,
    cross_gram,
    maxmin_common_target,
    single_cell_zf_maxmin_dl,
    single_cell_zf_maxmin_ul,
    stream_cross_gram,
)

log = logging.getLogger(__name__)

CENTER_CELL = 0
MAX_RESAMPLES = 100
# shared by every run, so a kept table holds no name strings of its own
SERIES_NAMES = {(s, li): f"{s} {li}" for s in (MR, ZF) for li in (DOWNLINK, UPLINK)}


@dataclass
class CdfTable:
    """Sorted per-series SINR samples in dB with empirical probabilities.

    `add` collects a series' samples; `finalize` merges them into `series`
    and sorts them.
    """

    series: dict[str, np.ndarray] = field(default_factory=dict)
    _pending: dict[str, list[np.ndarray]] = field(default_factory=dict, init=False, repr=False)

    def add(self, name: str, values_db: np.ndarray) -> None:
        self._pending.setdefault(name, []).append(values_db)

    def finalize(self) -> None:
        pending, self._pending = self._pending, {}
        # one series at a time, so only one series' samples are held twice
        for name in list(pending):
            parts = pending.pop(name)
            if name in self.series:
                parts.insert(0, self.series[name])
            vals = np.concatenate(parts)
            del parts
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


def _geometry(cfg: ScenarioConfig) -> tuple:
    """Wavelength, cell layout and base-station arrays, shared by all drops."""
    wl = wavelength_m(cfg.carrier_ghz)
    layout = hex_centers(cfg.cells, cfg.cell_radius_m)
    arrays = [
        circular_array(cfg.antennas_per_cell, wl, cfg.bs_array_height_m, center)
        for center in layout.centers
    ]
    return wl, layout, arrays


def _drop(cfg: ScenarioConfig, layout, seed: int):
    return drop_users(layout, cfg.users_per_cell, cfg.min_bs_distance_m, cfg.user_height_m, seed)


def build_drop_channels(cfg: ScenarioConfig, seed: int) -> ChannelSet:
    """One drop's full channel set from scenario parameters."""
    wl, layout, arrays = _geometry(cfg)
    return build_channel_set(layout, arrays, _drop(cfg, layout, seed), wl)


def run_scenario(cfg: ScenarioConfig) -> tuple[CdfTable, dict]:
    """Run all configured drops and aggregate per-user SINRs into CDF series.

    Each drop's channels are streamed into its cross-Gram tensor
    (`stream_cross_gram`) and never held whole.

    Drops that hit a rank-deficient ZF Gram matrix are re-sampled with a
    fresh derived seed and counted in the summary.
    """
    cfg.validate()
    rho = cfg.rho()
    combos = [(s, li) for s in cfg.scheme_list() for li in cfg.link_list()]
    single_cell = cfg.single_cell_series and ZF in cfg.scheme_list()
    # the single-cell series are evaluated with both multi-cell ZF systems
    pairs = list(dict.fromkeys(combos + ([(ZF, DOWNLINK), (ZF, UPLINK)] if single_cell else [])))

    wl, layout, arrays = _geometry(cfg)
    seed_stream = np.random.default_rng(cfg.seed)
    table = CdfTable()
    resampled = 0
    completed = 0
    while completed < cfg.drops:
        drop_seed = int(seed_stream.integers(2**63))
        try:
            xg = stream_cross_gram(arrays, _drop(cfg, layout, drop_seed), wl)
            systems = {(s, li): build_pc_system(xg, s, li, rho[li]) for s, li in pairs}
            drop_series = {
                SERIES_NAMES[pair]: _to_db(maxmin_common_target(systems[pair]).solution.achieved)
                for pair in combos
            }
            if single_cell:
                eta_dl = single_cell_zf_maxmin_dl(xg.inv_diag, rho[DOWNLINK])[0]
                eta_ul = single_cell_zf_maxmin_ul(xg.inv_diag, rho[UPLINK])[0]
                drop_series["ZF DL-1"] = _to_db(systems[ZF, DOWNLINK].sinr(eta_dl)[CENTER_CELL])
                drop_series["ZF UL-1"] = _to_db(systems[ZF, UPLINK].sinr(eta_ul)[CENTER_CELL])
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


RECON_TOL = 1e-10


@dataclass(frozen=True)
class VerificationEntry:
    scheme: str
    link: str
    deviation: np.ndarray  # (L, K) |simulated - closed-form SINR| in standard errors
    recon_residual: float  # relative power of (signal + interference + noise - received)

    @property
    def max_dev_sigma(self) -> float:
        return float(np.max(self.deviation))

    @property
    def worst_user(self) -> tuple[int, int]:
        """(cell, user) of the largest deviation."""
        cell, user = np.unravel_index(np.argmax(self.deviation), self.deviation.shape)
        return int(cell), int(user)

    def passed(self, threshold: float) -> bool:
        return self.max_dev_sigma < threshold and self.recon_residual < RECON_TOL


@dataclass(frozen=True)
class VerificationReport:
    entries: list[VerificationEntry]
    threshold: float

    @property
    def passed(self) -> bool:
        return all(e.passed(self.threshold) for e in self.entries)


def verify(cfg: ScenarioConfig, n_symbols: int, threshold: float = 5.0) -> VerificationReport:
    """Closed-form vs Monte Carlo agreement over one configured drop.

    Uses uniform admissible allocations (downlink 1/K per user, uplink full
    power) and reports every user's deviation in standard-error units, and
    the simulation's reconstruction residual, which must be below `RECON_TOL`.
    """
    cfg.validate()
    if n_symbols < 2:
        raise ValueError("verification needs n_symbols >= 2 to estimate a standard error")
    channels = build_drop_channels(cfg, cfg.seed)
    shape = (cfg.cells, cfg.users_per_cell)
    alloc = {
        DOWNLINK: dl_allocation(np.full(shape, 1.0 / cfg.users_per_cell)),
        UPLINK: ul_allocation(np.ones(shape)),
    }
    rho = cfg.rho()
    xg = cross_gram(channels)

    entries = []
    for scheme in cfg.scheme_list():
        for link in cfg.link_list():
            closed = build_pc_system(xg, scheme, link, rho[link]).sinr(alloc[link].eta)
            result = simulate(channels, scheme, alloc[link], rho[link], n_symbols, cfg.seed)
            sigma = np.where(result.sinr_stderr > 0, result.sinr_stderr, np.inf)
            dev = np.abs(result.sinr - closed) / sigma
            entries.append(VerificationEntry(scheme=scheme, link=link, deviation=dev,
                                             recon_residual=result.recon_residual))
    return VerificationReport(entries=entries, threshold=threshold)
