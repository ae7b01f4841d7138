import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losmimo import (
    ConfigurationError,
    circular_array,
    drop_users,
    hex_centers,
    in_hexagon,
)

SQRT3 = np.sqrt(3.0)


class TestHexCenters:
    def test_single_cell_at_origin(self):
        layout = hex_centers(1, 200.0)
        assert layout.centers.shape == (1, 2)
        assert np.allclose(layout.centers, 0.0)

    def test_seven_cell_outer_distance(self):
        layout = hex_centers(7, 200.0)
        dist = np.linalg.norm(layout.centers[1:], axis=1)
        assert np.allclose(dist, SQRT3 * 200.0, atol=1e-9)
        assert np.allclose(dist, 346.4102, atol=1e-3)

    def test_outer_angles(self):
        layout = hex_centers(7, 150.0)
        angles = np.rad2deg(np.arctan2(layout.centers[1:, 1], layout.centers[1:, 0])) % 360
        assert np.allclose(sorted(angles), 30.0 + 60.0 * np.arange(6), atol=1e-9)

    def test_adjacent_centers_equidistant(self):
        # every outer center is sqrt(3)*R from the origin and from its two ring neighbors
        r = 123.0
        layout = hex_centers(7, r)
        outer = layout.centers[1:]
        for i in range(6):
            d = np.linalg.norm(outer[i] - outer[(i + 1) % 6])
            assert d == pytest.approx(SQRT3 * r, abs=1e-9)

    def test_unsupported_count_raises(self):
        with pytest.raises(ConfigurationError):
            hex_centers(3, 200.0)
        with pytest.raises(ConfigurationError):
            hex_centers(7, -1.0)


class TestCircularArray:
    def test_published_diameter(self):
        wl = 299792458.0 / 60e9
        arr = circular_array(4096, wl, 30.0)
        xy = arr.positions[:, :2]
        diameter = 2 * np.max(np.linalg.norm(xy - xy.mean(axis=0), axis=1))
        assert diameter == pytest.approx(3.26, abs=0.01)

    def test_small_array_angles(self):
        arr = circular_array(4, 2 * np.pi, 0.0)
        radius = np.linalg.norm(arr.positions[:, :2], axis=1)
        assert np.allclose(radius, 2.0)
        expected = np.array([[2, 0], [0, 2], [-2, 0], [0, -2]], dtype=float)
        assert np.allclose(arr.positions[:, :2], expected, atol=1e-12)

    def test_single_antenna(self):
        wl = 0.005
        arr = circular_array(1, wl, 10.0)
        assert np.linalg.norm(arr.positions[0, :2]) == pytest.approx(wl / (4 * np.pi))
        assert arr.positions[0, 2] == 10.0

    def test_arc_separation_is_half_wavelength(self):
        wl = 0.0049965
        m = 512
        arr = circular_array(m, wl, 30.0)
        radius = m * wl / (4 * np.pi)
        arc = radius * 2 * np.pi / m
        assert arc == pytest.approx(wl / 2, rel=1e-12)
        chords = np.linalg.norm(np.diff(arr.positions, axis=0), axis=1)
        assert np.allclose(chords, chords[0], rtol=1e-9)

    def test_bad_wavelength(self):
        with pytest.raises(ConfigurationError):
            circular_array(8, 0.0, 30.0)


class TestHexMembership:
    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_inscribed_and_circumscribed_circles(self, x, y):
        r = np.hypot(x, y)
        inside = in_hexagon(np.array([[200 * x, 200 * y]]), np.zeros(2), 200.0)[0]
        if r < SQRT3 / 2 - 1e-9:  # inside the inscribed circle
            assert inside
        if r > 1 + 1e-9:  # outside the circumscribed circle
            assert not inside

    def test_vertices_are_members(self):
        angles = np.deg2rad(60.0 * np.arange(6))
        verts = 200.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        assert in_hexagon(verts, np.zeros(2), 200.0).all()


class TestDropUsers:
    def test_deterministic(self):
        layout = hex_centers(7, 200.0)
        a = drop_users(layout, 5, 10.0, 1.5, seed=99)
        b = drop_users(layout, 5, 10.0, 1.5, seed=99)
        assert np.array_equal(a.positions, b.positions)

    def test_shapes_and_containment(self):
        layout = hex_centers(7, 200.0)
        drop = drop_users(layout, 18, 10.0, 1.5, seed=7)
        assert drop.positions.shape == (7, 18, 3)
        assert np.allclose(drop.positions[:, :, 2], 1.5)
        for l, center in enumerate(layout.centers):
            assert in_hexagon(drop.positions[l, :, :2], center, 200.0).all()

    def test_min_distance_respected(self):
        layout = hex_centers(7, 200.0)
        d_min = 50.0
        drop = drop_users(layout, 40, d_min, 1.5, seed=3)
        for l, center in enumerate(layout.centers):
            dist = np.linalg.norm(drop.positions[l, :, :2] - center, axis=1)
            assert np.min(dist) >= d_min

    def test_d_min_too_large(self):
        with pytest.raises(ConfigurationError):
            drop_users(hex_centers(1, 200.0), 4, 250.0, 1.5, seed=0)

    def test_d_min_bounded_by_inradius(self):
        # sqrt(3)/2 R = 173.2 m: inside it, at least 7 % of the sampled box is kept
        layout = hex_centers(7, 200.0)
        with pytest.raises(ConfigurationError):
            drop_users(layout, 4, 173.3, 1.5, seed=0)
        drop = drop_users(layout, 4, 173.2, 1.5, seed=0)
        for l, center in enumerate(layout.centers):
            dist = np.linalg.norm(drop.positions[l, :, :2] - center, axis=1)
            assert np.all(dist >= 173.2)
            assert in_hexagon(drop.positions[l, :, :2], center, 200.0).all()

    def test_uniformity_mean_near_center(self):
        # 1e5 samples in one hexagon: sample mean within 3 standard errors
        layout = hex_centers(1, 200.0)
        drop = drop_users(layout, 100_000, 0.0, 1.5, seed=11)
        pts = drop.positions[0, :, :2]
        se = pts.std(axis=0) / np.sqrt(len(pts))
        assert np.all(np.abs(pts.mean(axis=0)) < 3 * se + 1e-12)
