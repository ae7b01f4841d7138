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
from .linproc import DOWNLINK, UPLINK, ZF, dl_allocation, ul_allocation
from .mcsim import simulate
from .powerctl import (
    build_pc_system,
    cross_gram,
    maxmin_common_target,
    single_cell_zf_maxmin_dl,
    single_cell_zf_maxmin_ul,
)

log = logging.getLogger(__name__)

CENTER_CELL = 0
MAX_RESAMPLES = 100


@dataclass
class CdfTable:
    """Sorted per-series SINR samples in dB with empirical probabilities."""

    series: dict[str, np.ndarray] = field(default_factory=dict)

    def add(self, name: str, values_db: np.ndarray) -> None:
        prev = self.series.get(name)
        stacked = values_db if prev is None else np.concatenate([prev, values_db])
        self.series[name] = stacked

    def finalize(self) -> None:
        self.series = {name: np.sort(vals) for name, vals in self.series.items()}

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
    return 10.0 * np.log10(np.clip(values, 1e-300, None))


def build_drop_channels(cfg: ScenarioConfig, seed: int) -> ChannelSet:
    """One drop's full channel set from scenario parameters."""
    wl = wavelength_m(cfg.carrier_ghz)
    layout = hex_centers(cfg.cells, cfg.cell_radius_m)
    arrays = [
        circular_array(cfg.antennas_per_cell, wl, cfg.bs_array_height_m, center)
        for center in layout.centers
    ]
    drop = drop_users(layout, cfg.users_per_cell, cfg.min_bs_distance_m, cfg.user_height_m, seed)
    return build_channel_set(layout, arrays, drop, wl)


def run_scenario(cfg: ScenarioConfig) -> tuple[CdfTable, dict]:
    """Run all configured drops and aggregate per-user SINRs into CDF series.

    Drops that hit a rank-deficient ZF Gram matrix are re-sampled with a
    fresh derived seed and counted in the summary.
    """
    cfg.validate()
    rho = cfg.rho()
    combos = [(s, li) for s in cfg.scheme_list() for li in cfg.link_list()]
    with_zf = ZF in cfg.scheme_list()
    single_cell = cfg.single_cell_series and with_zf
    # the single-cell series are evaluated with both multi-cell ZF systems
    pairs = list(dict.fromkeys(combos + ([(ZF, DOWNLINK), (ZF, UPLINK)] if single_cell else [])))

    seed_stream = np.random.default_rng(cfg.seed)
    table = CdfTable()
    resampled = 0
    completed = 0
    while completed < cfg.drops:
        drop_seed = int(seed_stream.integers(2**63))
        try:
            channels = build_drop_channels(cfg, drop_seed)
            xg = cross_gram(channels, invert=with_zf)
            systems = {(s, li): build_pc_system(xg, s, li, rho[li]) for s, li in pairs}
            drop_series = {
                f"{s} {li}": _to_db(maxmin_common_target(systems[s, li]).solution.achieved)
                for s, li in combos
            }
            if single_cell:
                eta_dl = single_cell_zf_maxmin_dl(xg.inv_diag, rho[DOWNLINK])[0]
                eta_ul = single_cell_zf_maxmin_ul(xg.inv_diag, rho[UPLINK])[0]
                drop_series["ZF DL-1"] = _to_db(systems[ZF, DOWNLINK].sinr(eta_dl)[CENTER_CELL])
                drop_series["ZF UL-1"] = _to_db(systems[ZF, UPLINK].sinr(eta_ul)[CENTER_CELL])
        except SingularChannelError:
            resampled += 1
            log.warning("rank-deficient drop re-sampled (%d so far)", resampled)
            if resampled > MAX_RESAMPLES:
                raise
            continue
        for name, vals in drop_series.items():
            table.add(name, vals)
        completed += 1
    table.finalize()
    summary = {
        "drops": completed,
        "resampled": resampled,
        "series": {name: len(vals) for name, vals in table.series.items()},
    }
    return table, summary


RECON_TOL = 1e-10


@dataclass(frozen=True)
class VerificationEntry:
    scheme: str
    link: str
    max_dev_sigma: float
    recon_residual: float  # relative power of (signal + interference + noise - received)

    def passed(self, threshold: float) -> bool:
        return self.max_dev_sigma < threshold and self.recon_residual < RECON_TOL


@dataclass(frozen=True)
class VerificationReport:
    entries: list[VerificationEntry]
    threshold: float
    n_symbols: int

    @property
    def passed(self) -> bool:
        return all(e.passed(self.threshold) for e in self.entries)


def verify(cfg: ScenarioConfig, n_symbols: int, threshold: float = 5.0) -> VerificationReport:
    """Closed-form vs Monte Carlo agreement over one configured drop.

    Uses uniform admissible allocations (downlink 1/K per user, uplink full
    power) and reports the worst deviation in standard-error units, and the
    simulation's reconstruction residual, which must be below `RECON_TOL`.
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
    xg = cross_gram(channels, invert=ZF in cfg.scheme_list())

    entries = []
    for scheme in cfg.scheme_list():
        for link in cfg.link_list():
            closed = build_pc_system(xg, scheme, link, rho[link]).sinr(alloc[link].eta)
            result = simulate(channels, scheme, alloc[link], rho[link], n_symbols, cfg.seed)
            sigma = np.where(result.sinr_stderr > 0, result.sinr_stderr, np.inf)
            dev = float(np.max(np.abs(result.sinr - closed) / sigma))
            entries.append(VerificationEntry(scheme=scheme, link=link, max_dev_sigma=dev,
                                             recon_residual=result.recon_residual))
    return VerificationReport(entries=entries, threshold=threshold, n_symbols=n_symbols)
