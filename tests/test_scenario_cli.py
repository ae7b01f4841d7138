import contextlib
import csv
import dataclasses
import io
import re
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import losmimo.channel
import losmimo.cli
import losmimo.scenario
from losmimo import (
    CdfTable,
    ConfigurationError,
    ScenarioConfig,
    SingularChannelError,
    build_channel_set,
    build_pc_system,
    cross_gram,
    load_config,
    parse_config,
    run_scenario,
    serialize_config,
    solve_drop,
    verify,
)
from losmimo.cli import main
from losmimo.config import MAX_CHANNEL_ENTRIES
from losmimo.scenario import MAX_RESAMPLES

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

    def test_channel_entries_bounded(self):
        # cells^2 * users_per_cell * max(antennas_per_cell, users_per_cell) complex entries
        half = MAX_CHANNEL_ENTRIES // 2
        at_limit = f"cells = 1\nantennas_per_cell = {half}\nusers_per_cell = 2\n"
        assert parse_config(at_limit).antennas_per_cell == half
        # MR allows K > M, where the K x K cross-Gram blocks outgrow the channels;
        # parsed only: running this one takes 1 GiB of cross-Gram and 8192^2 solves
        mr_at_limit = "cells = 1\nantennas_per_cell = 1\nusers_per_cell = 8192\nschemes = MR\n"
        assert parse_config(mr_at_limit).users_per_cell == 8192
        for over in (
            f"cells = 7\nantennas_per_cell = {MAX_CHANNEL_ENTRIES // 49 // 18 + 1}\n",
            "cells = 1\nantennas_per_cell = 1\nusers_per_cell = 8193\nschemes = MR\n",
            "cells = 7\nantennas_per_cell = 16\nusers_per_cell = 4000\nschemes = MR\n",
        ):
            with pytest.raises(ConfigurationError) as caught:
                parse_config(over)
            for key in ("cells", "antennas_per_cell", "users_per_cell"):
                assert key in str(caught.value)

    def test_equal_heights_outside_the_array_ring(self):
        # the ring of 32 antennas at 60 GHz has a radius of 12.7 mm
        text = ("antennas_per_cell = 32\nusers_per_cell = 3\nbs_array_height_m = 1.5\n"
                "user_height_m = 1.5\nmin_bs_distance_m = 0.02\n")
        assert parse_config(text).min_bs_distance_m == 0.02

    def test_round_trip_idempotent(self):
        text = "cells = 1\nantennas_per_cell = 48\nusers_per_cell = 6\nseed = 9\n"
        once = serialize_config(parse_config(text))
        twice = serialize_config(parse_config(once))
        assert once == twice


_DEFAULTS = dataclasses.asdict(ScenarioConfig())
_EDGE_VALUES = ["0", "-0", "1", "-1", "7", "nan", "-nan", "inf", "-inf", "1e300", "-1e300",
                "1e-300", "5e-324", "1.7976931348623157e308", str(10**30), "9" * 5000, "0x10",
                "1_000", "true", "no", "MR", "ZF,MR", "DL", "UL,DL", "MR,,ZF", "", "abc", "1.5.2",
                "= 3", "# comment"]
_VALUES = st.one_of(
    st.sampled_from(_EDGE_VALUES),
    st.integers(-(10**40), 10**40).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)


def _near_default(key):
    """Values around the key's default, so that some texts parse."""
    default = _DEFAULTS[key]
    if isinstance(default, (bool, str)):
        return st.just(str(default))
    return st.floats(0.0, 2.0).map(lambda f: str(type(default)(default * f)))


_LINES = st.sampled_from(list(_DEFAULTS)).flatmap(
    lambda key: st.tuples(st.just(key), st.one_of(_VALUES, _near_default(key))))


class TestConfigFuzz:
    # each key once: a repeated key is rejected, and would halve the texts
    # that reach the round trip
    @given(st.lists(_LINES, max_size=8, unique_by=lambda line: line[0]))
    @settings(max_examples=150, deadline=None)
    def test_config_text_parses_to_a_valid_config_or_is_rejected(self, lines):
        text = "".join(f"{key} = {value}\n" for key, value in lines)
        try:
            cfg = parse_config(text)
        except ConfigurationError:
            return
        cfg.validate()
        assert parse_config(serialize_config(cfg)) == cfg

    @given(st.lists(_LINES, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_rejected_config_exits_1_from_every_command(self, lines):
        text = "".join(f"{key} = {value}\n" for key, value in lines)
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = Path(tmp) / "fuzz.cfg"
            cfg_path.write_text(text)
            try:
                load_config(cfg_path)
            except ConfigurationError:
                pass
            else:
                return  # a config that parses would run; only rejections are checked
            out = Path(tmp) / "out"
            for command, extra in (("run", ["--out", str(out)]), ("verify", [])):
                stderr = io.StringIO()
                with contextlib.redirect_stderr(stderr):
                    assert main([command, "--config", str(cfg_path), *extra]) == 1
                err = stderr.getvalue()
                assert len([ln for ln in err.splitlines() if ln.startswith("error: ")]) == 1
                assert "Traceback" not in err
                assert not out.exists()


class TestRunScenario:
    def test_degenerate_single_user_cdf(self):
        from losmimo import maxmin_common_target
        cfg = tiny_config(cells=1, users_per_cell=1, drops=1, schemes="MR", links="DL",
                          single_cell_series=False)
        table, summary = run_scenario(cfg)
        assert list(table.series) == ["MR DL"]
        assert len(table.series["MR DL"]) == 1
        # the single sample is the closed-form max-min SINR of that drop
        drop_seed = int(np.random.default_rng(cfg.seed).integers(2**63))
        drop = solve_drop(cfg, losmimo.scenario._geometry(cfg), drop_seed, [("MR", "DL")])
        result = maxmin_common_target(drop.systems["MR", "DL"])
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

    def test_cdf_table_merges_each_series_once(self, rng):
        parts = {name: [rng.standard_normal(int(n)) for n in rng.integers(0, 9, 5)]
                 for name in ("ZF UL", "MR DL", "a", "ZF DL-1")}
        table = CdfTable()
        for i in range(5):
            for name, arrays in parts.items():
                table.add(name, arrays[i])
        table.finalize()
        assert list(table.series) == list(parts)
        for name, arrays in parts.items():
            assert np.array_equal(table.series[name], np.sort(np.concatenate(arrays)))

    def test_rank_deficient_drop_resampled_with_two_workers(self, set_workers, monkeypatch):
        set_workers(2)
        cfg = tiny_config(drops=2)
        clean, clean_summary = run_scenario(cfg)
        assert clean_summary == {"drops": 2, "resampled": 0}
        inverse = losmimo.channel.gram_inverse
        calls = []

        def singular_first_drop(gram):
            calls.append(1)
            if len(calls) == 1:
                raise SingularChannelError("channel Gram matrix is rank deficient")
            return inverse(gram)

        monkeypatch.setattr(losmimo.channel, "gram_inverse", singular_first_drop)
        table, summary = run_scenario(cfg)
        assert summary == {"drops": 2, "resampled": 1}
        for name, vals in table.series.items():
            assert len(vals) == len(clean.series[name])

    def test_always_rank_deficient_with_two_workers(self, set_workers):
        # a 300 m wavelength that no 8-antenna array resolves, in all 7 cells
        set_workers(2)
        cfg = tiny_config(antennas_per_cell=8, users_per_cell=2, drops=1, carrier_ghz=1e-12)
        with pytest.raises(SingularChannelError, match=f"on {MAX_RESAMPLES + 1} re-sampled"):
            run_scenario(cfg)

    def test_deterministic(self):
        cfg = tiny_config(drops=1)
        a, _ = run_scenario(cfg)
        b, _ = run_scenario(cfg)
        for name in a.series:
            assert np.array_equal(a.series[name], b.series[name])


class TestVerify:
    def test_small_scale_passes(self):
        # (config, checks): the second is MR only with more users than
        # antennas, where the oracle's uplink reads M < K noise rows
        for cfg, checks in (
            (tiny_config(cells=1, antennas_per_cell=8, users_per_cell=2), 4),
            (tiny_config(cells=1, antennas_per_cell=2, users_per_cell=3, schemes="MR", seed=3,
                         drops=1), 2),
        ):
            report = verify(cfg, n_symbols=50_000)
            assert len(report.entries) == checks
            assert report.passed

    def test_shipped_small_config_passes(self):
        cfg = load_config(SCENARIOS / "verify_small.cfg")
        assert (cfg.cells, cfg.antennas_per_cell, cfg.users_per_cell, cfg.seed) == (1, 8, 2, 3)
        assert verify(cfg, n_symbols=20_000).passed

    def test_rejects_single_symbol(self):
        cfg = tiny_config(cells=1)
        with pytest.raises(ValueError):
            verify(cfg, n_symbols=1)

    def test_per_user_deviations(self):
        cfg = tiny_config(drops=1)
        for entry in verify(cfg, n_symbols=2000).entries:
            assert entry.deviation.shape == (cfg.cells, cfg.users_per_cell)
            cell, user = entry.worst_user
            assert entry.deviation[cell, user] == entry.max_dev_sigma == np.max(entry.deviation)

    def test_checks_the_systems_run_solves(self):
        # verify keeps the channel tensor for the oracle, run streams it into
        # the cross-Gram; both must give the same bits
        cfg = tiny_config()
        pairs = [("MR", "DL"), ("MR", "UL"), ("ZF", "DL"), ("ZF", "UL")]
        geometry = losmimo.scenario._geometry(cfg)
        streamed = solve_drop(cfg, geometry, 11, pairs)
        kept = solve_drop(cfg, geometry, 11, pairs, keep_channels=True)
        assert streamed.channels is None
        assert kept.channels.shape == (7, 7, 32, 3)
        assert np.array_equal(streamed.xg.z, kept.xg.z)
        assert list(streamed.systems) == list(kept.systems) == pairs
        for pair in pairs:
            assert np.array_equal(streamed.systems[pair].d, kept.systems[pair].d)
            assert np.array_equal(streamed.systems[pair].c, kept.systems[pair].c)

    def test_deterministic(self):
        cfg = tiny_config(cells=1, antennas_per_cell=8, users_per_cell=2)
        a = verify(cfg, n_symbols=2000)
        b = verify(cfg, n_symbols=2000)
        assert [e.max_dev_sigma for e in a.entries] == [e.max_dev_sigma for e in b.entries]


def _write_tiny_config(path, **overrides):
    cfg = tiny_config(**overrides)
    path.write_text(serialize_config(cfg))
    return cfg


def _config_with(cfg, line) -> str:
    """`cfg` serialized with `line` (key = value) in place of its key's line."""
    key = line.split(" = ")[0]
    kept = [ln for ln in serialize_config(cfg).splitlines() if ln.split(" = ")[0] != key]
    return "\n".join([*kept, line]) + "\n"


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

    def test_csv_byte_identical_for_any_worker_count(self, tmp_path, set_workers, monkeypatch):
        cfg_path = SCENARIOS / "reduced.cfg"
        cfg = load_config(cfg_path)
        assert cfg.drops > 1
        outputs = []
        for workers in (1, 2, 3):
            set_workers(workers)
            out = tmp_path / f"workers{workers}.csv"
            assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())

        def whole_tensor(arrays, drop, wl):
            return cross_gram(build_channel_set(arrays, drop, wl).matrices)

        monkeypatch.setattr(losmimo.scenario, "stream_cross_gram", whole_tensor)
        out = tmp_path / "tensor.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert outputs[0] == outputs[1] == outputs[2] == out.read_bytes()

    def test_oversized_channel_exit_code(self, tmp_path, capsys):
        # both once passed parsing: 2e8 complex channel entries (3 GiB), which
        # then ran for minutes, and an MR config with K >> M, whose cross-Gram
        # tensor alone takes 149 GiB
        for text in ("cells = 1\nantennas_per_cell = 100000000\nusers_per_cell = 2\n",
                     "cells = 1\nantennas_per_cell = 1\nusers_per_cell = 100000\nschemes = MR\n"):
            cfg_path = tmp_path / "big.cfg"
            cfg_path.write_text(text)
            out = tmp_path / "x.csv"
            start = time.perf_counter()
            assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
            assert time.perf_counter() - start < 10.0
            errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error: ")]
            assert len(errors) == 1
            for key in ("cells", "antennas_per_cell", "users_per_cell"):
                assert key in errors[0]
            assert not out.exists()

    def test_min_distance_near_cell_radius_exit_code(self, tmp_path, capsys):
        # rejection sampling once ran for minutes here: the user-free disk
        # covered almost all of the cell
        cfg = tiny_config(antennas_per_cell=16, users_per_cell=2, drops=1)
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(_config_with(cfg, "min_bs_distance_m = 199.9999"))
        out = tmp_path / "x.csv"
        start = time.perf_counter()
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert time.perf_counter() - start < 10.0
        errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error: ")]
        assert len(errors) == 1
        assert "min_bs_distance_m" in errors[0] and "cell_radius_m" in errors[0]
        assert not out.exists()
        # just inside the inradius (173.2 m at R = 200 m) still runs
        cfg_path.write_text(_config_with(cfg, "min_bs_distance_m = 173"))
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert out.exists()

    # a user on the array ring at the array's height sits on an antenna: the
    # channel build raised mid-run, and run does not re-sample that error
    @pytest.mark.parametrize("bs_height", ["1.5", "1.5000000001"])
    def test_user_disk_inside_the_array_ring_exit_code(self, tmp_path, capsys, bs_height):
        # 32 antennas at 60 GHz: a ring of radius 32 * 5 mm / (4 pi) = 12.7 mm
        cfg = tiny_config(drops=1, user_height_m=1.5, min_bs_distance_m=0.01)
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(_config_with(cfg, f"bs_array_height_m = {bs_height}"))
        out = tmp_path / "x.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error: ")]
        assert len(errors) == 1
        for key in ("bs_array_height_m", "user_height_m", "min_bs_distance_m"):
            assert key in errors[0]
        assert not out.exists()

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("cells = 5\n")
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["carrier_ghz = nan", "cell_radius_m = nan",
                                      "bandwidth_hz = inf"])
    def test_non_finite_value_exit_code(self, tmp_path, capsys, line):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(_config_with(tiny_config(drops=1), line))
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
        cfg_path.write_text(_config_with(tiny_config(drops=1), line))
        out = tmp_path / "x.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error: ")]
        assert len(errors) == 1 and line.split(" = ")[0] in errors[0]
        assert not out.exists()

    # each passed parsing, then the channel build warned of invalid values and
    # `run` failed only at "SVD did not converge", which names no key
    @pytest.mark.parametrize("line", ["carrier_ghz = 1e-300", "cell_radius_m = 1e300",
                                      "user_height_m = 1e300"])
    def test_overflowing_geometry_exit_code(self, tmp_path, capsys, line):
        cfg_path = tmp_path / "bad.cfg"
        one_cell = tiny_config(cells=1, antennas_per_cell=8, users_per_cell=2, drops=1)
        cfg_path.write_text(_config_with(one_cell, line))
        out = tmp_path / "x.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error: ")]
        assert len(errors) == 1 and line.split(" = ")[0] in errors[0]
        assert not out.exists()

    def test_maxmin_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        # a D with a zero entry has no max-min target; it must not reach the
        # CSV as a -3000 dB row
        import losmimo.scenario

        def zero_d(*args):
            system = build_pc_system(*args)
            return dataclasses.replace(system, d=np.where(np.arange(len(system.d)) == 0,
                                                          0.0, system.d))

        monkeypatch.setattr(losmimo.scenario, "build_pc_system", zero_d)
        cfg_path = tmp_path / "scenario.cfg"
        _write_tiny_config(cfg_path, drops=1)
        out = tmp_path / "x.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error: ")]
        assert len(errors) == 1 and "MR DL" in errors[0]
        assert not out.exists()

    def test_always_rank_deficient_exit_code(self, tmp_path, capsys):
        # a 300 m wavelength that no 8-antenna array resolves: every drop is
        # re-sampled, and the error names the resample count and the keys
        cfg_path = tmp_path / "bad.cfg"
        one_cell = tiny_config(cells=1, antennas_per_cell=8, users_per_cell=2, drops=1)
        cfg_path.write_text(_config_with(one_cell, "carrier_ghz = 1e-12"))
        out = tmp_path / "x.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error: ")]
        assert len(errors) == 1
        assert f"{MAX_RESAMPLES + 1} re-sampled drops" in errors[0]
        for key in ("carrier_ghz", "antennas_per_cell", "users_per_cell", "cell_radius_m"):
            assert key in errors[0]
        assert not out.exists()

    @pytest.mark.parametrize("command,stage", [("run", "run_scenario")])
    def test_unwritable_out_fails_before_any_drop(self, tmp_path, capsys, monkeypatch,
                                                  command, stage):
        def no_drop(*args):
            raise AssertionError(f"{stage} called before --out was checked")

        monkeypatch.setattr(losmimo.cli, stage, no_drop)
        out = tmp_path / "missing" / "x.csv"
        argv = [command, "--config", str(SCENARIOS / "reduced.cfg"), "--out", str(out)]
        assert main(argv) == 1
        errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error: ")]
        assert len(errors) == 1 and "missing" in errors[0]

    def test_out_check_keeps_an_existing_file(self, tmp_path, monkeypatch):
        # the check neither truncates a file that a failed run would not
        # have written, nor leaves one behind where there was none
        def failed_run(cfg):
            raise SingularChannelError("channel Gram matrix is rank deficient")

        monkeypatch.setattr(losmimo.cli, "run_scenario", failed_run)
        kept, fresh = tmp_path / "kept.csv", tmp_path / "fresh.csv"
        kept.write_text("earlier rows\n")
        for out in (kept, fresh):
            assert main(["run", "--config", str(SCENARIOS / "reduced.cfg"), "--out", str(out)]) == 1
        assert kept.read_text() == "earlier rows\n"
        assert not fresh.exists()

    def test_verify_ok_and_usage_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "scenario.cfg"
        _write_tiny_config(cfg_path, cells=1, antennas_per_cell=8, users_per_cell=2)
        assert main(["verify", "--config", str(cfg_path), "--symbols", "20000"]) == 0
        assert main(["verify", "--config", str(cfg_path), "--symbols", "1"]) == 1

    def test_repeated_config_key_exits_1(self, tmp_path, capsys):
        # the second value used to win silently
        cfg_path = tmp_path / "scenario.cfg"
        cfg_path.write_text("seed = 3\nseed = 4\n")
        out = tmp_path / "cdf.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: line 2: key 'seed' already set on line 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--config", str(SCENARIOS / "reduced.cfg")],  # no --out
        ["verify", "--symbols", "abc"],
        [],
        # --drops overrides the drop count of `run` only
        ["verify", "--config", str(SCENARIOS / "verify_small.cfg"), "--drops", "1"],
        ["dump-channels"],  # not a command
    ], ids=["missing_argument", "invalid_int", "no_command", "verify_drops", "dump_channels"])
    def test_usage_error_exits_1(self, capsys, argv):
        # exit 2 is kept for a failed verification
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: losmimo")
        assert len([ln for ln in err.splitlines() if ln.startswith("error: ")]) == 1

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["run", "--help"])
        assert caught.value.code == 0
        assert "--out" in capsys.readouterr().out

    def test_failed_verification_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(losmimo.scenario, "SIGMA_THRESHOLD", 0.0)
        argv = ["verify", "--config", str(SCENARIOS / "verify_small.cfg"), "--symbols", "2000"]
        assert main(argv) == 2
        lines = capsys.readouterr().out.splitlines()
        assert len([ln for ln in lines if ln.endswith("[FAIL]")]) == 4
        assert lines[-1] == "verification failed (threshold 0.0 sigma)"

    def test_verify_reduced_config(self, capsys):
        # the README's reduced-scale check at its documented symbol count
        argv = ["verify", "--config", str(SCENARIOS / "reduced.cfg"), "--symbols", "100000"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        checks = [ln for ln in lines if ln.endswith("[ok]")]
        assert len(checks) == 4
        line = r"(MR|ZF) (DL|UL): max deviation \d+\.\d\d sigma at \(cell \d+, user \d+\) \[ok\]"
        assert all(re.fullmatch(line, ln) for ln in checks)

    def test_seed_and_drops_overrides(self, tmp_path):
        cfg_path = tmp_path / "scenario.cfg"
        _write_tiny_config(cfg_path, drops=1)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", "--config", str(cfg_path), "--out", str(out1)])
        main(["run", "--config", str(cfg_path), "--seed", "7", "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()
