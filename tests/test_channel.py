import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import losmimo
from losmimo import (
    ConfigurationError,
    SingularGeometryError,
    build_channel_set,
    circular_array,
    drop_users,
    hex_centers,
    link_budget,
    stream_cross_gram,
    wavelength_m,
)

from reference_channel import fspl_db, los_channel


class TestFspl:
    def test_reference_point(self):
        # both logs vanish at f = 1 GHz, d = 1 m; 32.45 is the usual rounding
        assert fspl_db(1.0, 1.0) == pytest.approx(32.45, abs=0.005)
        assert fspl_db(1.0, 1.0) == pytest.approx(20 * np.log10(4e9 * np.pi / 299792458.0), abs=1e-12)

    def test_60ghz_200m(self):
        assert fspl_db(60.0, 200.0) == pytest.approx(114.03, abs=0.01)

    @given(st.floats(0.1, 100.0), st.floats(1.0, 1e4))
    @settings(max_examples=100, deadline=None)
    def test_doubling_distance(self, f, d):
        assert fspl_db(f, 2 * d) - fspl_db(f, d) == pytest.approx(20 * np.log10(2), rel=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ConfigurationError):
            fspl_db(0.0, 100.0)
        with pytest.raises(ConfigurationError):
            fspl_db(60.0, -1.0)


class TestLinkBudget:
    def test_table_values(self):
        rho_dl, rho_ul = link_budget(50e6, 2.0, 0.2, 9.0, 9.0)
        assert 10 * np.log10(rho_dl) == pytest.approx(121.02, abs=0.01)
        assert 10 * np.log10(rho_ul) == pytest.approx(111.02, abs=0.01)

    def test_power_ratio(self):
        # only the radiated powers differ by 10x, same noise floor
        rho_dl, rho_ul = link_budget(50e6, 2.0, 0.2, 9.0, 9.0)
        assert rho_dl / rho_ul == pytest.approx(10.0, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            link_budget(0.0, 2.0, 0.2, 9.0, 9.0)


class TestLosChannel:
    def test_single_antenna_one_wavelength(self):
        wl = 0.005
        antennas = np.array([[0.0, 0.0, 0.0]])
        g = los_channel(np.array([wl, 0.0, 0.0]), antennas, wl)
        assert abs(g[0]) == pytest.approx(1 / (4 * np.pi), rel=1e-12)
        assert g[0].imag == pytest.approx(0.0, abs=1e-12)
        assert g[0].real > 0

    def test_equidistant_norm(self):
        wl = 0.005
        m = 16
        arr = circular_array(m, wl, 0.0)
        # a user on the array axis is equidistant from all antennas
        radius = m * wl / (4 * np.pi)
        user = np.array([0.0, 0.0, 40.0])
        r = np.hypot(radius, 40.0)
        g = los_channel(user, arr, wl)
        assert np.linalg.norm(g) ** 2 == pytest.approx(m * (wl / (4 * np.pi * r)) ** 2, rel=1e-12)

    def test_gain_matches_negative_fspl(self):
        f = 60.0
        wl = wavelength_m(f)
        antennas = np.array([[0.0, 0.0, 30.0]])
        user = np.array([200.0, 0.0, 30.0])
        g = los_channel(user, antennas, wl)
        gain_db = 20 * np.log10(abs(g[0]))
        assert gain_db == pytest.approx(-fspl_db(f, 200.0), abs=1e-9)

    def test_coincident_position_raises(self):
        antennas = np.array([[1.0, 2.0, 3.0]])
        with pytest.raises(SingularGeometryError):
            los_channel(np.array([1.0, 2.0, 3.0]), antennas, 0.005)


def _small_scene(seed=5, antennas=32, users=4):
    """(L, M, 3) antennas and (L, K, 3) users of a 7-cell drop, and the wavelength."""
    wl = wavelength_m(60.0)
    centers = hex_centers(7, 200.0)
    arrays = np.stack([circular_array(antennas, wl, 30.0, c) for c in centers])
    return arrays, drop_users(centers, 200.0, users, 10.0, 1.5, seed=seed), wl


class TestChannelSet:
    def test_dimensions_and_columns(self):
        arrays, drop, wl = _small_scene()
        cs = build_channel_set(arrays, drop, wl)
        assert cs.matrices.shape == (7, 7, 32, 4)
        # column k of block (bs, cell) is the LoS vector of user (cell, k) at bs
        g = los_channel(drop[2, 1], arrays[5], wl)
        assert np.array_equal(cs.matrices[5, 2][:, 1], g)

    @pytest.mark.parametrize("antennas,users", [(32, 4), (256, 8)])
    def test_bit_identical_to_per_user_los_channel(self, set_workers, antennas, users):
        arrays, drop, wl = _small_scene(antennas=antennas, users=users)
        stacked = np.stack([
            np.stack([
                np.stack([los_channel(u, arrays[bs], wl) for u in drop[cell]], axis=1)
                for cell in range(7)
            ])
            for bs in range(7)
        ])
        for workers in (1, 2, 3):
            set_workers(workers)
            assert np.array_equal(build_channel_set(arrays, drop, wl).matrices, stacked), workers

    def test_user_on_antenna_raises(self):
        arrays, drop, wl = _small_scene()
        positions = drop.copy()
        positions[3, 1] = arrays[5, 7]
        with pytest.raises(SingularGeometryError):
            build_channel_set(arrays, positions, wl)

    def test_counts_read_from_positions(self):
        # a drop and arrays given fewer users and antennas build channels of
        # their own shape: the counts are read from the positions
        arrays, drop, wl = _small_scene()
        fewer = drop[:, :2]
        arrays = arrays[:, :5]
        cs = build_channel_set(arrays, fewer, wl)
        assert cs.matrices.shape == (7, 7, 5, 2)
        assert np.array_equal(cs.matrices[5, 2][:, 1], los_channel(fewer[2, 1], arrays[5], wl))

    @pytest.mark.parametrize("build", [build_channel_set, stream_cross_gram],
                             ids=lambda build: build.__name__)
    def test_stations_and_users_of_different_cell_counts_raise(self, build):
        # the cell count, the 3 coordinates and nonempty axes are read from
        # both arrays, and nothing else checks them
        arrays, drop, wl = _small_scene()
        with pytest.raises(ConfigurationError, match="disagree on cell count"):
            build(arrays, drop[:6], wl)
        with pytest.raises(ConfigurationError, match=r"\(7, 32, 3\).*\(7, 4, 2\)"):
            build(arrays, drop[..., :2], wl)
        with pytest.raises(ConfigurationError, match=r"\(7, 32, 2\).*\(7, 4, 3\)"):
            build(arrays[..., :2], drop, wl)
        # an empty station, antenna or user axis
        with pytest.raises(ConfigurationError, match=r"\(0, 32, 3\).*\(0, 4, 3\)"):
            build(arrays[:0], drop[:0], wl)
        with pytest.raises(ConfigurationError, match=r"\(7, 0, 3\).*\(7, 4, 3\)"):
            build(arrays[:, :0], drop, wl)
        with pytest.raises(ConfigurationError, match=r"\(7, 32, 3\).*\(7, 0, 3\)"):
            build(arrays, drop[:, :0], wl)

    def test_deterministic(self):
        arrays, drop, wl = _small_scene()
        a = build_channel_set(arrays, drop, wl)
        b = build_channel_set(arrays, drop, wl)
        assert np.array_equal(a.matrices, b.matrices)

    def test_recompute_from_positions(self):
        arrays, drop, wl = _small_scene()
        cs = build_channel_set(arrays, drop, wl)
        r = np.linalg.norm(arrays[3][:, None, :] - drop[0][None, :, :], axis=2)
        mags = wl / (4 * np.pi * r)
        assert np.allclose(np.abs(cs.matrices[3, 0]), mags, rtol=1e-12)

    def test_norm_decreases_moving_away(self):
        wl = wavelength_m(60.0)
        arr = circular_array(16, wl, 30.0)
        norms = []
        for d in np.linspace(50.0, 400.0, 12):
            g = los_channel(np.array([d, 17.0, 1.5]), arr, wl)
            norms.append(np.linalg.norm(g) ** 2)
        assert np.all(np.diff(norms) < 0)


class TestWorkers:
    def test_import_without_sched_getaffinity(self):
        # os.sched_getaffinity is missing on macOS and Windows: every CPU builds channels
        code = ("import os; del os.sched_getaffinity; import losmimo; "
                "print(losmimo.channel.WORKERS, os.cpu_count() or 1)")
        src = str(Path(losmimo.__file__).resolve().parents[1])
        paths = [src, os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        workers, cpus = done.stdout.split()
        assert workers == cpus
