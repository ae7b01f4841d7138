import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losmimo import (
    ArrayGeometry,
    ConfigurationError,
    SingularGeometryError,
    build_channel_set,
    circular_array,
    drop_users,
    dump_channel_set,
    hex_centers,
    link_budget,
    wavelength_m,
)

from reference_channel import fspl_db, load_channel_dump, los_channel


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
        rho_dl, rho_ul = link_budget(60.0, 50e6, 2.0, 0.2, 9.0, 9.0)
        assert 10 * np.log10(rho_dl) == pytest.approx(121.02, abs=0.01)
        assert 10 * np.log10(rho_ul) == pytest.approx(111.02, abs=0.01)

    def test_power_ratio(self):
        # only the radiated powers differ by 10x, same noise floor
        rho_dl, rho_ul = link_budget(60.0, 50e6, 2.0, 0.2, 9.0, 9.0)
        assert rho_dl / rho_ul == pytest.approx(10.0, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            link_budget(60.0, 0.0, 2.0, 0.2, 9.0, 9.0)


class TestLosChannel:
    def test_single_antenna_one_wavelength(self):
        wl = 0.005
        array = ArrayGeometry(1, np.array([[0.0, 0.0, 0.0]]))
        g = los_channel(np.array([wl, 0.0, 0.0]), array, wl)
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
        array = ArrayGeometry(1, np.array([[0.0, 0.0, 30.0]]))
        user = np.array([200.0, 0.0, 30.0])
        g = los_channel(user, array, wl)
        gain_db = 20 * np.log10(abs(g[0]))
        assert gain_db == pytest.approx(-fspl_db(f, 200.0), abs=1e-9)

    def test_coincident_position_raises(self):
        array = ArrayGeometry(1, np.array([[1.0, 2.0, 3.0]]))
        with pytest.raises(SingularGeometryError):
            los_channel(np.array([1.0, 2.0, 3.0]), array, 0.005)


def _small_scene(seed=5, antennas=32, users=4):
    wl = wavelength_m(60.0)
    layout = hex_centers(7, 200.0)
    arrays = [circular_array(antennas, wl, 30.0, c) for c in layout.centers]
    drop = drop_users(layout, users, 10.0, 1.5, seed=seed)
    return layout, arrays, drop, wl


class TestChannelSet:
    def test_dimensions_and_columns(self):
        layout, arrays, drop, wl = _small_scene()
        cs = build_channel_set(layout, arrays, drop, wl)
        assert cs.matrices.shape == (7, 7, 32, 4)
        # column k of block (bs, cell) is the LoS vector of user (cell, k) at bs
        g = los_channel(drop.positions[2, 1], arrays[5], wl)
        assert np.array_equal(cs.matrices[5, 2][:, 1], g)

    @pytest.mark.parametrize("antennas,users", [(32, 4), (256, 8)])
    def test_bit_identical_to_per_user_los_channel(self, antennas, users):
        layout, arrays, drop, wl = _small_scene(antennas=antennas, users=users)
        cs = build_channel_set(layout, arrays, drop, wl)
        stacked = np.stack([
            np.stack([
                np.stack([los_channel(u, arrays[bs], wl) for u in drop.positions[cell]], axis=1)
                for cell in range(7)
            ])
            for bs in range(7)
        ])
        assert np.array_equal(cs.matrices, stacked)

    def test_user_on_antenna_raises(self):
        layout, arrays, drop, wl = _small_scene()
        positions = drop.positions.copy()
        positions[3, 1] = arrays[5].positions[7]
        with pytest.raises(SingularGeometryError):
            build_channel_set(layout, arrays, dataclasses.replace(drop, positions=positions), wl)

    def test_deterministic(self):
        layout, arrays, drop, wl = _small_scene()
        a = build_channel_set(layout, arrays, drop, wl)
        b = build_channel_set(layout, arrays, drop, wl)
        assert np.array_equal(a.matrices, b.matrices)

    def test_recompute_from_positions(self):
        layout, arrays, drop, wl = _small_scene()
        cs = build_channel_set(layout, arrays, drop, wl)
        r = np.linalg.norm(arrays[3].positions[:, None, :] - drop.positions[0][None, :, :], axis=2)
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

    def test_dump_roundtrip(self, tmp_path):
        layout, arrays, drop, wl = _small_scene()
        cs = build_channel_set(layout, arrays, drop, wl)
        path = tmp_path / "channels.txt"
        dump_channel_set(cs, path)
        loaded = load_channel_dump(path)
        assert loaded.wavelength == cs.wavelength
        assert np.array_equal(loaded.matrices, cs.matrices)
