import os
import subprocess
import sys
import threading
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import losmimo
import losmimo.channel
from losmimo import (
    ConfigurationError,
    ScenarioConfig,
    SingularGeometryError,
    circular_array,
    drop_users,
    hex_centers,
    link_budget,
    stream_cross_gram,
    wavelength_m,
)

from conftest import published_reach_limit_ghz
from reference_channel import channel_tensor, cross_gram, fspl_db, los_channel, los_entries


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
    arrays = circular_array(antennas, wl, 30.0, centers)
    return arrays, drop_users(centers, 200.0, users, 10.0, 1.5, seed=seed), wl


def _kernel_block(arrays, drop, wl, bs):
    """The kernel's (M, L K) channels and distances of station bs, whole, from
    positions relative to its array center (the (L, M, 3) arrays' mean)."""
    center = arrays.mean(axis=1)[bs]
    shape = (arrays.shape[1], drop.shape[0] * drop.shape[1])
    r = np.empty(shape)
    out = losmimo.channel.station_channels(arrays[bs] - center, drop.reshape(-1, 3) - center,
                                           wl, np.empty(shape, dtype=complex), r, np.empty(shape))
    return out, r


def _decimal_distance(antenna, user) -> Decimal:
    """The distance between two float positions, in 40-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 40
        return sum((Decimal(a) - Decimal(u)) ** 2 for a, u in zip(antenna, user)).sqrt()


class TestChannelSet:
    def test_dimensions_and_columns(self):
        arrays, drop, wl = _small_scene()
        channels = channel_tensor(arrays, drop, wl)
        assert channels.shape == (7, 7, 32, 4)
        # column k of block (bs, cell) is the LoS vector of user (cell, k) at bs:
        # the kernel's entry (m, cell K + k), and the textbook vector within 1e-9
        out, _ = _kernel_block(arrays, drop, wl, 5)
        assert np.array_equal(channels[5, 2][:, 1], out[:, 2 * 4 + 1])
        g = los_channel(drop[2, 1], arrays[5], wl)
        assert np.allclose(channels[5, 2][:, 1], g, rtol=1e-9, atol=0.0)
        assert stream_cross_gram(arrays, drop, wl).z.shape == (7, 7, 4, 4)

    @pytest.mark.parametrize("antennas,users", [(32, 4), (256, 8)])
    def test_bit_identical_to_los_entries_of_the_kernel_distances(self, set_workers, antennas,
                                                                   users):
        # the phase and the amplitude follow the per-entry reference bit for bit,
        # from the distances the kernel returns
        arrays, drop, wl = _small_scene(antennas=antennas, users=users)
        channels = channel_tensor(arrays, drop, wl)
        for bs in range(7):
            out, r = _kernel_block(arrays, drop, wl, bs)
            assert np.array_equal(out, los_entries(r, wl)), bs
            assert np.array_equal(channels[bs], out.reshape(antennas, 7, users).swapaxes(0, 1))
        # the streamed products hold these very channels, whatever the worker count
        want = cross_gram(channels).z
        for workers in (1, 2, 3):
            set_workers(workers)
            assert np.array_equal(stream_cross_gram(arrays, drop, wl).z, want), workers

    @pytest.mark.parametrize("antennas,users", [(32, 4), (256, 8)])
    def test_kernel_distances_within_their_rounding_bound(self, antennas, users):
        # the distances come from one BLAS product, whose last bits no per-user
        # computation follows. With a and u the positions relative to the array
        # center, rounding a, u, |a|^2, |u|^2, 2 a.u, the two sums and the root
        # moves r by at most 8 eps (|a| + |u|)^2 / r
        arrays, drop, wl = _small_scene(antennas=antennas, users=users)
        users_flat = drop.reshape(-1, 3)
        rng = np.random.default_rng(11)
        for bs in (0, 4):
            out, r = _kernel_block(arrays, drop, wl, bs)
            center = arrays.mean(axis=1)[bs]
            for m, j in zip(rng.integers(antennas, size=200), rng.integers(7 * users, size=200)):
                exact = _decimal_distance(arrays[bs, m], users_flat[j])
                spread = (np.linalg.norm(arrays[bs, m] - center)
                          + np.linalg.norm(users_flat[j] - center))
                bound = 8.0 * np.finfo(float).eps * spread**2 / float(exact)
                assert abs(Decimal(r[m, j]) - exact) <= Decimal(bound), (bs, m, j)

    def test_user_on_antenna_raises(self):
        arrays, drop, wl = _small_scene()
        positions = drop.copy()
        positions[3, 1] = arrays[5, 7]
        with pytest.raises(SingularGeometryError):
            stream_cross_gram(arrays, positions, wl)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["antennas", "users"])
    def test_non_finite_position_raises_before_any_task(self, set_workers, monkeypatch, value,
                                                         which):
        # a NaN or infinite coordinate once gave a non-finite z with only a warning
        set_workers(2)
        arrays, drop, wl = _small_scene()
        positions = {"antennas": arrays.copy(), "users": drop.copy()}
        positions[which][3, 1, 0] = value
        calls = []
        monkeypatch.setattr(losmimo.channel, "station_channels", lambda *args: calls.append(1))
        with pytest.raises(ConfigurationError, match="finite"):
            stream_cross_gram(positions["antennas"], positions["users"], wl)
        assert calls == []

    def test_counts_read_from_positions(self):
        # a drop and arrays given fewer users and antennas build channels of
        # their own shape: the counts are read from the positions
        arrays, drop, wl = _small_scene()
        fewer = drop[:, :2]
        arrays = arrays[:, :5]
        channels = channel_tensor(arrays, fewer, wl)
        assert channels.shape == (7, 7, 5, 2)
        assert np.array_equal(channels[5, 2][:, 1], _kernel_block(arrays, fewer, wl, 5)[0][:, 5])
        assert np.allclose(channels[5, 2][:, 1], los_channel(fewer[2, 1], arrays[5], wl),
                           rtol=1e-9, atol=0.0)
        assert np.array_equal(stream_cross_gram(arrays, fewer, wl).z, cross_gram(channels).z)

    @pytest.mark.parametrize("build", [stream_cross_gram], ids=lambda build: build.__name__)
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
        a = stream_cross_gram(arrays, drop, wl)
        b = stream_cross_gram(arrays, drop, wl)
        assert np.array_equal(a.z, b.z)

    def test_recompute_from_positions(self):
        arrays, drop, wl = _small_scene()
        channels = channel_tensor(arrays, drop, wl)
        r = np.linalg.norm(arrays[3][:, None, :] - drop[0][None, :, :], axis=2)
        mags = wl / (4 * np.pi * r)
        assert np.allclose(np.abs(channels[3, 0]), mags, rtol=1e-12)

    def test_norm_decreases_moving_away(self):
        wl = wavelength_m(60.0)
        arr = circular_array(16, wl, 30.0)
        norms = []
        for d in np.linspace(50.0, 400.0, 12):
            g = los_channel(np.array([d, 17.0, 1.5]), arr, wl)
            norms.append(np.linalg.norm(g) ** 2)
        assert np.all(np.diff(norms) < 0)


def _textbook_channel(antenna, user, wavelength: float) -> complex:
    """(lambda / 4 pi r) exp(i 2 pi r / lambda) of one antenna-user pair, with
    r and r / lambda mod 1 taken from the float positions in 40-digit decimals."""
    r = _decimal_distance(antenna, user)
    with localcontext() as ctx:
        ctx.prec = 40
        cycles = r / Decimal(wavelength)
        fraction = float(cycles - cycles.to_integral_value())
    return wavelength / (4.0 * np.pi * float(r)) * np.exp(2j * np.pi * fraction)


class TestAccuracy:
    def test_published_geometry_matches_the_textbook_formula(self):
        # at 60 GHz the phase 2 pi r / lambda reaches ~2.6e5 rad; the kernel's
        # distances and reduced argument must keep every entry within 1e-9 of
        # the formula
        arrays, drop, wl = _small_scene(seed=3, antennas=4096, users=18)
        out, _ = _kernel_block(arrays, drop, wl, 4)
        users = drop.reshape(-1, 3)
        rng = np.random.default_rng(7)
        picks = zip(rng.integers(4096, size=300), rng.integers(7 * 18, size=300))
        errors = [abs(out[m, j] - _textbook_channel(arrays[4, m], users[j], wl)) / abs(out[m, j])
                  for m, j in picks]
        assert max(errors) <= 1e-9

    def test_farthest_users_the_config_accepts_keep_the_bound(self):
        # rounding the positions relative to an array center moves r by up to
        # about 1.7 eps per wavelength of distance, which no kernel can mend: at the
        # carrier where the published cluster reaches MAX_REACH_WAVELENGTHS,
        # 67 GHz, the farthest users' entries stay within 1e-9 of the formula
        # (3.8e-10 at worst in 140 000 sampled entries); at 600 GHz they did not
        ghz = published_reach_limit_ghz()
        ScenarioConfig(carrier_ghz=ghz).validate()
        with pytest.raises(ConfigurationError, match="wavelengths"):
            ScenarioConfig(carrier_ghz=float(np.nextafter(ghz, np.inf))).validate()
        wl = wavelength_m(ghz)
        centers = hex_centers(7, 200.0)
        arrays = circular_array(4096, wl, 30.0, centers)
        users = drop_users(centers, 200.0, 18, 10.0, 1.5, seed=3).reshape(-1, 3)
        rng = np.random.default_rng(5)
        errors = []
        for bs in range(7):
            out, _ = _kernel_block(arrays, users.reshape(7, 18, 3), wl, bs)
            far = np.argsort(np.linalg.norm(users - arrays[bs].mean(axis=0), axis=1))[-25:]
            for m, j in zip(rng.integers(4096, size=100), rng.choice(far, size=100)):
                want = _textbook_channel(arrays[bs, m], users[j], wl)
                errors.append(abs(out[m, j] - want) / abs(out[m, j]))
        assert max(errors) <= 1e-9

    @pytest.mark.parametrize("cycles", [1, 40, 1001])
    def test_phase_at_the_ends_of_the_quarter_range(self, cycles):
        # users on a line from a one-antenna tile at the array center, at (k + f)
        # wavelengths: f = +-1/2 gives t = tan(theta / 4) = +-1, f = 0 gives t = 0,
        # and the float below k + 1/2 the largest fraction under 1/2. A power-of-two
        # wavelength keeps every r / lambda exact
        wl = 2.0**-8
        fractions = [-0.5, -0.25, -1e-12, 0.0, 1e-12, 0.25, 0.5]
        along = [cycles + f for f in fractions] + [np.nextafter(cycles + 0.5, 0.0)]
        users = np.zeros((len(along), 3))
        users[:, 0] = np.array(along) * wl
        shape = (1, len(along))
        out, r = np.empty(shape, dtype=complex), np.empty(shape)
        losmimo.channel.station_channels(np.zeros((1, 3)), users, wl, out, r, np.empty(shape))
        assert np.array_equal(r[0], users[:, 0])
        for j, user in enumerate(users):
            want = _textbook_channel(np.zeros(3), user, wl)
            assert abs(out[0, j] - want) <= 1e-12 * abs(want), along[j]  # 2.4e-16 measured

    def test_modulus_is_the_amplitude_on_a_published_tile(self):
        # the half-angle form's (1 + t^2)^2 joins the amplitude: |g| 4 pi r / lambda
        # stays at 1 on every entry of a table1 tile (8.9e-16 off at most, measured)
        arrays, drop, wl = _small_scene(seed=3, antennas=4096, users=18)
        width = losmimo.channel.tile_width(7, 4096, 18)
        center = arrays[2].mean(axis=0)
        shape = (width, 7 * 18)
        out, r = np.empty(shape, dtype=complex), np.empty(shape)
        losmimo.channel.station_channels(arrays[2, :width] - center, drop.reshape(-1, 3) - center,
                                         wl, out, r, np.empty(shape))
        assert np.max(np.abs(np.abs(out) * (4.0 * np.pi * r / wl) - 1.0)) <= 1e-14

    def test_closest_distance_the_config_accepts_keeps_the_bound(self):
        # near an antenna the Gram form cancels terms of size R^2: on the
        # published ring (R = 1.63 m) at equal heights, a user at the closest
        # distance a config may give, on the radial line through each of 24
        # antennas, still gets entries within 1e-9 of the formula
        cfg = ScenarioConfig(user_height_m=30.0)
        wl = wavelength_m(cfg.carrier_ghz)
        radius = cfg.antennas_per_cell * wl / (4.0 * np.pi)
        gap = losmimo.channel.closest_distance_m(radius, wl)
        cfg.min_bs_distance_m = radius + gap
        while cfg.min_bs_distance_m - radius < gap:
            cfg.min_bs_distance_m = np.nextafter(cfg.min_bs_distance_m, np.inf)
        cfg.validate()
        arrays = circular_array(cfg.antennas_per_cell, wl, 30.0, hex_centers(1, 200.0))
        sampled = np.linspace(0, cfg.antennas_per_cell, 24, endpoint=False).astype(int)
        users = arrays[:, sampled].copy()
        users[..., :2] *= cfg.min_bs_distance_m / radius
        out, r = _kernel_block(arrays, users, wl, 0)
        assert np.allclose(r[sampled, np.arange(24)], gap, rtol=1e-6)
        errors = [abs(out[m, j] - _textbook_channel(arrays[0, m], users[0, j], wl)) / abs(out[m, j])
                  for j, m in enumerate(sampled)]
        assert max(errors) <= 1e-9


def _blockwise_error(got: np.ndarray, want: np.ndarray) -> float:
    """Largest normwise relative difference of the (K, K) blocks of two z."""
    return float(np.max(np.linalg.norm(got - want, axis=(2, 3))
                        / np.linalg.norm(want, axis=(2, 3))))


class TestTiles:
    """Several antenna tiles per station, the last one shorter: 7 stations
    of 32 antennas and 4 users in tiles of 12, 12 and 8 antennas."""

    @pytest.fixture(autouse=True)
    def three_tiles(self, monkeypatch):
        monkeypatch.setattr(losmimo.channel, "_TILE", 7 * 4 * 12)

    def test_same_bits_for_any_worker_count(self, set_workers):
        arrays, drop, wl = _small_scene()
        set_workers(1)
        want = stream_cross_gram(arrays, drop, wl).z
        for workers in (1, 2, 3):
            set_workers(workers)
            for _ in range(2):
                assert np.array_equal(stream_cross_gram(arrays, drop, wl).z, want), workers
        # the sum of tile products stays next to the full-row product
        assert _blockwise_error(want, cross_gram(channel_tensor(arrays, drop, wl)).z) <= 1e-13

    def test_pool_error_on_a_tile_reaches_caller_unchanged(self, set_workers, monkeypatch):
        set_workers(2)
        arrays, drop, wl = _small_scene()
        want = stream_cross_gram(arrays, drop, wl).z
        error = SingularGeometryError("user position coincides with an antenna position")
        raised_on = []
        kernel = losmimo.channel.station_channels

        seen_from_1 = drop.reshape(-1, 3) - arrays[1].mean(axis=0)

        def failing_on_last_tile_of_station_1(tile, users, *args):
            # task 5, dealt to the pool: the short tile, users as seen from station 1
            if len(tile) == 8 and np.allclose(users, seen_from_1):
                raised_on.append(threading.current_thread())
                raise error
            return kernel(tile, users, *args)

        monkeypatch.setattr(losmimo.channel, "station_channels", failing_on_last_tile_of_station_1)
        with pytest.raises(SingularGeometryError) as caught:
            stream_cross_gram(arrays, drop, wl)
        assert caught.value is error
        assert raised_on and raised_on[0].name.startswith("losmimo-station")
        monkeypatch.setattr(losmimo.channel, "station_channels", kernel)
        assert np.array_equal(stream_cross_gram(arrays, drop, wl).z, want)

    def test_concurrent_callers_under_fast_thread_switching(self, set_workers):
        # more workers than cores, three callers at once, a switch every microsecond:
        # a tile product in the wrong slot or a buffer shared across threads shows in z
        scenes = [_small_scene(seed=seed) for seed in (1, 2, 3)]
        set_workers(1)
        want = [stream_cross_gram(*scene).z for scene in scenes]
        set_workers(4)
        failures = []

        def caller(i):
            try:
                for _ in range(20):
                    if not np.array_equal(stream_cross_gram(*scenes[i]).z, want[i]):
                        failures.append(i)
            except Exception as exc:  # kept for the assert, not lost with the thread
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def test_a_tile_holds_at_least_k_antennas(self, set_workers, monkeypatch):
        # where L K exceeds _TILE, a tile of K antennas keeps the tile
        # products within L^2 K (M + K) entries
        monkeypatch.setattr(losmimo.channel, "_TILE", 1)
        widths = []
        kernel = losmimo.channel.station_channels

        def recorded(tile, *args):
            widths.append(len(tile))
            return kernel(tile, *args)

        monkeypatch.setattr(losmimo.channel, "station_channels", recorded)
        set_workers(2)
        arrays, drop, wl = _small_scene()
        got = stream_cross_gram(arrays, drop, wl).z
        assert widths == [4] * 7 * 8
        assert _blockwise_error(got, cross_gram(channel_tensor(arrays, drop, wl)).z) <= 1e-13

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_user_on_an_antenna_of_the_short_tile_raises(self, set_workers, workers):
        set_workers(workers)
        arrays, drop, wl = _small_scene()
        positions = drop.copy()
        positions[3, 1] = arrays[5, 30]
        with pytest.raises(SingularGeometryError):
            stream_cross_gram(arrays, positions, wl)


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
