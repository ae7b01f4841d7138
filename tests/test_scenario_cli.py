import csv
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from losmimo import (
    ConfigurationError,
    ScenarioConfig,
    load_channel_set,
    load_config,
    parse_config,
    run_scenario,
    serialize_config,
    verify,
)
from losmimo.cli import main
from losmimo.scenario import RECON_TOL, build_drop_channels

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
SIX_SERIES = ["MR DL", "MR UL", "ZF DL", "ZF UL", "ZF DL-1", "ZF UL-1"]


def tiny_config(**overrides) -> ScenarioConfig:
    base = dict(
        cells=7, antennas_per_cell=32, users_per_cell=3, drops=2, seed=42,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestConfig:
    def test_parse_and_defaults(self):
        cfg = parse_config("cells = 1\nantennas_per_cell = 64\nusers_per_cell = 4\n")
        assert cfg.cells == 1
        assert cfg.antennas_per_cell == 64
        assert cfg.carrier_ghz == 60.0  # untouched default

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# header\n\ncells = 1  # trailing\n")
        assert cfg.cells == 1

    def test_unknown_key(self):
        with pytest.raises(ConfigurationError):
            parse_config("no_such_key = 3\n")

    def test_invalid_values(self):
        with pytest.raises(ConfigurationError):
            parse_config("cells = 5\n")
        with pytest.raises(ConfigurationError):
            parse_config("drops = x\n")
        with pytest.raises(ConfigurationError):
            parse_config("antennas_per_cell = 4\nusers_per_cell = 8\n")

    def test_round_trip_idempotent(self):
        text = "cells = 1\nantennas_per_cell = 48\nusers_per_cell = 6\nseed = 9\n"
        once = serialize_config(parse_config(text))
        twice = serialize_config(parse_config(once))
        assert once == twice


class TestRunScenario:
    def test_degenerate_single_user_cdf(self):
        from losmimo import build_pc_system, link_budget, maxmin_common_target
        cfg = tiny_config(cells=1, users_per_cell=1, drops=1, schemes="MR", links="DL",
                          single_cell_series=False)
        table, summary = run_scenario(cfg)
        assert list(table.series) == ["MR DL"]
        assert len(table.series["MR DL"]) == 1
        # the single sample is the closed-form max-min SINR of that drop
        budget = link_budget(cfg.carrier_ghz, cfg.bandwidth_hz, cfg.bs_power_w,
                             cfg.mobile_power_w, cfg.bs_noise_figure_db,
                             cfg.mobile_noise_figure_db)
        drop_seed = int(np.random.default_rng(cfg.seed).integers(2**63))
        channels = build_drop_channels(cfg, drop_seed)
        result = maxmin_common_target(build_pc_system(channels, "MR", "DL", budget.rho_dl))
        assert table.series["MR DL"][0] == pytest.approx(10 * np.log10(result.target), abs=1e-6)

    def test_all_six_series(self):
        cfg = tiny_config()
        table, summary = run_scenario(cfg)
        assert sorted(table.series) == sorted(SIX_SERIES)
        # max-min series: all users of all drops; single-cell: center cell only
        for name in SIX_SERIES[:4]:
            assert len(table.series[name]) == cfg.drops * cfg.cells * cfg.users_per_cell
        for name in SIX_SERIES[4:]:
            assert len(table.series[name]) == cfg.drops * cfg.users_per_cell
        assert summary["resampled"] == 0

    def test_mr_only_allows_more_users_than_antennas(self):
        # MR needs no Gram inverse, so K > M is valid without ZF and is never re-sampled
        cfg = tiny_config(antennas_per_cell=2, users_per_cell=3, schemes="MR")
        table, summary = run_scenario(cfg)
        assert summary["resampled"] == 0
        assert sorted(table.series) == ["MR DL", "MR UL"]
        for vals in table.series.values():
            assert len(vals) == cfg.drops * cfg.cells * cfg.users_per_cell
            assert np.all(np.isfinite(vals))

    def test_maxmin_series_degenerate_per_drop(self):
        cfg = tiny_config(drops=3)
        table, _ = run_scenario(cfg)
        # a drop's max-min samples share one SINR, so at most `drops` distinct values
        for name in SIX_SERIES[:4]:
            distinct = len(np.unique(np.round(table.series[name], 4)))
            assert distinct <= cfg.drops

    def test_cdf_rows_monotone(self):
        cfg = tiny_config(drops=1)
        table, _ = run_scenario(cfg)
        for name, vals in table.series.items():
            assert np.all(np.diff(vals) >= 0)
        rows = list(table.rows())
        probs = {}
        for name, _, p in rows:
            probs.setdefault(name, []).append(p)
        for series_probs in probs.values():
            assert series_probs[-1] == pytest.approx(1.0)
            assert np.all(np.diff(series_probs) > 0)

    def test_deterministic(self):
        cfg = tiny_config(drops=1)
        a, _ = run_scenario(cfg)
        b, _ = run_scenario(cfg)
        for name in a.series:
            assert np.array_equal(a.series[name], b.series[name])


class TestVerify:
    def test_small_scale_passes(self):
        cfg = tiny_config(cells=1, antennas_per_cell=8, users_per_cell=2)
        report = verify(cfg, n_symbols=50_000)
        assert len(report.entries) == 4
        assert report.passed

    def test_shipped_small_config_passes(self):
        cfg = load_config(SCENARIOS / "verify_small.cfg")
        assert (cfg.cells, cfg.antennas_per_cell, cfg.users_per_cell, cfg.seed) == (1, 8, 2, 3)
        assert verify(cfg, n_symbols=20_000).passed

    def test_rejects_single_symbol(self):
        cfg = tiny_config(cells=1)
        with pytest.raises(ValueError):
            verify(cfg, n_symbols=1)

    def test_reconstruction_residual_gates_pass(self):
        cfg = tiny_config(cells=1, antennas_per_cell=8, users_per_cell=2)
        report = verify(cfg, n_symbols=2000)
        assert all(e.recon_residual < RECON_TOL for e in report.entries)
        broken = dataclasses.replace(report.entries[0], recon_residual=10 * RECON_TOL)
        assert not dataclasses.replace(report, entries=[broken]).passed

    def test_deterministic(self):
        cfg = tiny_config(cells=1, antennas_per_cell=8, users_per_cell=2)
        a = verify(cfg, n_symbols=2000)
        b = verify(cfg, n_symbols=2000)
        assert [e.max_dev_sigma for e in a.entries] == [e.max_dev_sigma for e in b.entries]


def _write_tiny_config(path, **overrides):
    cfg = tiny_config(**overrides)
    path.write_text(serialize_config(cfg))
    return cfg


class TestCli:
    def test_run_writes_csv(self, tmp_path, capsys):
        cfg_path = tmp_path / "scenario.cfg"
        _write_tiny_config(cfg_path, drops=1)
        out = tmp_path / "cdf.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["series", "sinr_db", "cdf"]
        names = {row[0] for row in rows[1:]}
        assert names == set(SIX_SERIES)

    def test_run_byte_identical_for_same_seed(self, tmp_path):
        cfg_path = tmp_path / "scenario.cfg"
        _write_tiny_config(cfg_path, drops=1)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", "--config", str(cfg_path), "--out", str(out1)])
        main(["run", "--config", str(cfg_path), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("cells = 5\n")
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["carrier_ghz = nan", "cell_radius_m = nan",
                                      "bandwidth_hz = inf"])
    def test_non_finite_value_exit_code(self, tmp_path, capsys, line):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(serialize_config(tiny_config(drops=1)) + line + "\n")
        out = tmp_path / "x.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert "error: " + line.split(" = ")[0] in capsys.readouterr().err
        assert not out.exists()

    # each was accepted by parsing: a negative seed failed later in numpy with
    # no key named, a repeated scheme or link ran every check twice, and an
    # overflowing link budget wrote -3000 dB rows
    @pytest.mark.parametrize("line", ["seed = -1", "schemes = MR,MR", "links = DL,DL",
                                      "bs_power_w = 1e300", "bs_noise_figure_db = -1e308"])
    def test_rejected_value_exit_code(self, tmp_path, capsys, line):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(serialize_config(tiny_config(drops=1)) + line + "\n")
        out = tmp_path / "x.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error: ")]
        assert len(errors) == 1 and line.split(" = ")[0] in errors[0]
        assert not out.exists()

    def test_verify_ok_and_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "scenario.cfg"
        _write_tiny_config(cfg_path, cells=1, antennas_per_cell=8, users_per_cell=2)
        assert main(["verify", "--config", str(cfg_path), "--symbols", "20000"]) == 0
        assert main(["verify", "--config", str(cfg_path), "--symbols", "1"]) == 1

    def test_seed_and_drops_overrides(self, tmp_path):
        cfg_path = tmp_path / "scenario.cfg"
        _write_tiny_config(cfg_path, drops=1)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", "--config", str(cfg_path), "--out", str(out1)])
        main(["run", "--config", str(cfg_path), "--seed", "7", "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()

    def test_dump_channels(self, tmp_path):
        cfg_path = tmp_path / "scenario.cfg"
        cfg = _write_tiny_config(cfg_path, cells=1, antennas_per_cell=8, users_per_cell=2)
        out = tmp_path / "channels.txt"
        assert main(["dump-channels", "--config", str(cfg_path), "--out", str(out)]) == 0
        loaded = load_channel_set(out)
        assert loaded.matrices.shape == (1, 1, 8, 2)
        direct = build_drop_channels(cfg, cfg.seed)
        assert np.array_equal(loaded.matrices, direct.matrices)
