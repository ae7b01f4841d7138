import multiprocessing
import sys
import threading
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import losmimo.channel
import losmimo.powerctl
import losmimo.scenario
from losmimo import (
    ConfigurationError,
    MaxminError,
    PcSystem,
    ScenarioConfig,
    SingularChannelError,
    SingularGeometryError,
    build_channel_set,
    build_pc_system,
    circular_array,
    cross_gram,
    drop_users,
    gram_inverse,
    hex_centers,
    maxmin_common_target,
    single_cell_zf_maxmin,
    solve_drop,
    solve_targets,
    stream_cross_gram,
    wavelength_m,
)

from conftest import random_channel_set
from reference_maxmin import bisection_maxmin, perron_maxmin
from reference_sinr import evaluate_allocation, evaluate_sinr

ALL_SCHEMES = [("MR", "DL"), ("MR", "UL"), ("ZF", "DL"), ("ZF", "UL")]
REDUCED_SEEDS = range(1, 21)


@cache
def _reduced_systems(seed: int) -> dict:
    """The four systems of one drop at the reduced scale (L=7, M=256, K=8)."""
    cfg = ScenarioConfig(cells=7, antennas_per_cell=256, users_per_cell=8)
    return solve_drop(cfg, losmimo.scenario._geometry(cfg), seed, ALL_SCHEMES).systems


def _admissible_eta(rng, cells, users, link):
    if link == "DL":
        eta = rng.uniform(0.01, 1.0, (cells, users))
        return eta / (np.sum(eta, axis=1, keepdims=True) * rng.uniform(1.05, 2.0))
    return rng.uniform(0.05, 0.95, (cells, users))


def _reference_system(cs, scheme, link, rho):
    """(d, C) read back from the reference SINR formulas: with half power on
    user j alone, SINR_j = d_j / 2; with half power on users i and j,
    SINR_i = (d_i / 2) / (1 + C_ij / 2)."""
    cells, users = cs.shape[0], cs.shape[3]
    n = cells * users

    def sinr(*active):
        eta = np.zeros(n)
        eta[list(active)] = 0.5
        return evaluate_sinr(cs, scheme, link, eta.reshape(cells, users), rho).values.ravel()

    d = np.array([2.0 * sinr(j)[j] for j in range(n)])
    c = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                c[i, j] = d[i] / sinr(i, j)[i] - 2.0
    return d, c


class TestSystemStructure:
    @pytest.mark.parametrize("scheme,link", ALL_SCHEMES)
    def test_defining_identity(self, rng, scheme, link):
        # closed-form SINR == [D eta]_j / (1 + [C eta]_j) for admissible eta
        for _ in range(5):
            cs = random_channel_set(rng, cells=3, users=2, antennas=12)
            system = build_pc_system(cross_gram(cs), scheme, link, 20.0)
            eta = _admissible_eta(rng, 3, 2, link)
            closed = evaluate_sinr(cs, scheme, link, eta, 20.0).values.ravel()
            flat = eta.ravel()
            assert np.allclose(closed, system.d * flat / (1.0 + system.c @ flat), rtol=1e-10)
            assert np.allclose(closed, system.sinr(flat), rtol=1e-10)

    @pytest.mark.parametrize("scheme", ["MR", "ZF"])
    def test_uplink_downlink_duality(self, rng, scheme):
        # C_UL = C_DL^T and d_UL / rho_u = d_DL / rho_d: built by the package,
        # and read back from the reference formulas
        cs = random_channel_set(rng, cells=2, users=3, antennas=12)
        rho_u, rho_d = 7.0, 20.0
        xg = cross_gram(cs)
        ul, dl = build_pc_system(xg, scheme, "UL", rho_u), build_pc_system(xg, scheme, "DL", rho_d)
        same_rho = build_pc_system(xg, scheme, "DL", rho_u)
        assert np.array_equal(ul.c, same_rho.c.T) and np.array_equal(ul.d, same_rho.d)
        ref_ul_d, ref_ul_c = _reference_system(cs, scheme, "UL", rho_u)
        ref_dl_d, ref_dl_c = _reference_system(cs, scheme, "DL", rho_d)
        scale = np.max(ul.c / rho_u)
        assert np.allclose(ref_ul_c / rho_u, ref_dl_c.T / rho_d, rtol=1e-8, atol=1e-10 * scale)
        assert np.allclose(ref_ul_d / rho_u, ref_dl_d / rho_d, rtol=1e-12)
        for (d, c), system, rho in (((ref_ul_d, ref_ul_c), ul, rho_u),
                                    ((ref_dl_d, ref_dl_c), dl, rho_d)):
            assert np.allclose(d, system.d, rtol=1e-12)
            assert np.allclose(c, system.c, rtol=1e-8, atol=1e-10 * scale * rho)

    def test_channels_and_cross_gram_give_the_same_system(self, rng):
        cs = random_channel_set(rng, cells=3, users=2, antennas=8)
        xg = cross_gram(cs)
        for l in range(3):
            for lp in range(3):
                assert np.allclose(xg.z[l, lp], cs[l, l].conj().T @ cs[l, lp],
                                   rtol=1e-13, atol=1e-15)
        # xg keeps its inverses once a ZF system has read them; a fresh one has none yet
        for scheme, link in ALL_SCHEMES:
            a = build_pc_system(cross_gram(cs), scheme, link, 9.0)
            b = build_pc_system(xg, scheme, link, 9.0)
            assert np.array_equal(a.d, b.d) and np.array_equal(a.c, b.c)

    def test_mr_never_inverts_a_gram(self, rng, monkeypatch):
        def no_inverse(*args):
            raise AssertionError("MR called gram_inverse")

        monkeypatch.setattr(losmimo.channel, "gram_inverse", no_inverse)
        for antennas in (16, 2):  # K = 3 > M = 2: no inverse exists
            xg = cross_gram(random_channel_set(rng, antennas=antennas))
            for link in ("DL", "UL"):
                maxmin_common_target(build_pc_system(xg, "MR", link, 5.0))
            assert "igram" not in vars(xg)

    def test_gram_inverses_taken_once_on_first_zf_read(self, rng, monkeypatch):
        calls = []
        inverse = losmimo.channel.gram_inverse

        def counted(*args):
            calls.append(threading.current_thread())
            return inverse(*args)

        monkeypatch.setattr(losmimo.channel, "gram_inverse", counted)
        cs = random_channel_set(rng, cells=3)
        xg = cross_gram(cs)
        assert calls == []
        for scheme, link in ALL_SCHEMES:
            build_pc_system(xg, scheme, link, 5.0)
        xg.inv_diag
        assert calls == [threading.current_thread()] * 3
        for l in range(3):
            serving = cs[l, l]
            assert np.array_equal(xg.igram[l], gram_inverse(serving.conj().T @ serving))

    @pytest.mark.parametrize("scheme,link", ALL_SCHEMES)
    def test_c_nonnegative_and_d_positive(self, rng, scheme, link):
        cs = random_channel_set(rng)
        system = build_pc_system(cross_gram(cs), scheme, link, 5.0)
        assert np.all(system.d > 0)
        assert np.all(system.c >= 0)

    def test_mr_diagonal_blocks_have_zero_diagonal(self, rng):
        cs = random_channel_set(rng, cells=2, users=3)
        for link in ("DL", "UL"):
            system = build_pc_system(cross_gram(cs), "MR", link, 5.0)
            for l in range(2):
                block = system.c[l * 3:(l + 1) * 3, l * 3:(l + 1) * 3]
                assert np.all(np.diag(block) == 0)
                assert np.any(block > 0)  # off-diagonal intra-cell terms remain

    def test_zf_diagonal_blocks_are_zero(self, rng):
        cs = random_channel_set(rng, cells=2, users=3)
        for link in ("DL", "UL"):
            system = build_pc_system(cross_gram(cs), "ZF", link, 5.0)
            for l in range(2):
                assert np.all(system.c[l * 3:(l + 1) * 3, l * 3:(l + 1) * 3] == 0)

    def test_single_cell_zf_c_is_zero(self, rng):
        cs = random_channel_set(rng, cells=1, users=3)
        for link in ("DL", "UL"):
            assert np.all(build_pc_system(cross_gram(cs), "ZF", link, 5.0).c == 0)


def _scene(antennas, users, seed=5):
    """(L, M, 3) antennas and (L, K, 3) users of a 7-cell drop, and the wavelength."""
    wl = wavelength_m(60.0)
    centers = hex_centers(7, 200.0)
    arrays = np.stack([circular_array(antennas, wl, 30.0, c) for c in centers])
    return arrays, drop_users(centers, 200.0, users, 10.0, 1.5, seed=seed), wl


class TestStreamCrossGram:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("antennas,users", [(32, 4), (256, 8)])
    def test_bit_identical_to_cross_gram_of_channel_set(self, set_workers, workers,
                                                        antennas, users):
        set_workers(workers)
        arrays, drop, wl = _scene(antennas, users)
        channels = build_channel_set(arrays, drop, wl).matrices
        want = cross_gram(channels)
        got = stream_cross_gram(arrays, drop, wl)
        assert np.array_equal(got.z, want.z)
        assert np.array_equal(got.igram, want.igram)
        # z[l, l] is the Gram matrix G^H G, so each inverse is that of G^H G
        for l in range(7):
            serving = channels[l, l]
            assert np.array_equal(got.igram[l], gram_inverse(serving.conj().T @ serving))

    def test_mr_allows_more_users_than_antennas(self, set_workers):
        set_workers(2)
        arrays, drop, wl = _scene(antennas=2, users=3)
        got = stream_cross_gram(arrays, drop, wl)
        assert np.array_equal(got.z, cross_gram(build_channel_set(arrays, drop, wl).matrices).z)
        with pytest.raises(SingularChannelError):  # only ZF, which needs K <= M, reads these
            got.igram

    @pytest.mark.parametrize("build,field", [(build_channel_set, "matrices"),
                                             (stream_cross_gram, "z")],
                             ids=["build_channel_set", "stream_cross_gram"])
    def test_worker_error_reaches_caller_unchanged(self, set_workers, monkeypatch, build, field):
        set_workers(2)
        arrays, drop, wl = _scene(32, 4)
        want = getattr(build(arrays, drop, wl), field)
        error = SingularGeometryError("user position coincides with an antenna position")
        raised_on = []
        kernel = losmimo.channel.station_channels

        def failing_on_station_1(array, *args):
            if np.array_equal(array, arrays[1]):
                raised_on.append(threading.current_thread())
                raise error
            return kernel(array, *args)

        monkeypatch.setattr(losmimo.channel, "station_channels", failing_on_station_1)
        with pytest.raises(SingularGeometryError) as caught:
            build(arrays, drop, wl)
        assert caught.value is error
        assert raised_on and raised_on[0] is not threading.current_thread()
        monkeypatch.setattr(losmimo.channel, "station_channels", kernel)
        # the pool and the buffers still serve the next drop
        assert np.array_equal(getattr(build(arrays, drop, wl), field), want)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_user_on_antenna_raises(self, set_workers, workers):
        set_workers(workers)
        arrays, drop, wl = _scene(32, 4)
        positions = drop.copy()
        positions[3, 1] = arrays[5, 7]
        for build in (build_channel_set, stream_cross_gram):
            with pytest.raises(SingularGeometryError):
                build(arrays, positions, wl)

    @pytest.mark.parametrize("build", [build_channel_set, stream_cross_gram],
                             ids=lambda build: build.__name__)
    def test_arrays_and_drop_of_different_cell_counts_raise(self, build):
        arrays, _, wl = _scene(32, 4)
        drop = drop_users(hex_centers(1, 200.0), 200.0, 4, 10.0, 1.5, seed=5)
        with pytest.raises(ConfigurationError, match="disagree on cell count"):
            build(arrays, drop, wl)

    def test_pool_made_once_and_only_for_more_than_one_worker(self, set_workers, monkeypatch):
        arrays, drop, wl = _scene(32, 4)
        threads = set()
        kernel = losmimo.channel.station_channels

        def recorded(*args):
            threads.add(threading.current_thread())
            return kernel(*args)

        monkeypatch.setattr(losmimo.channel, "station_channels", recorded)
        set_workers(1)
        build_channel_set(arrays, drop, wl)
        stream_cross_gram(arrays, drop, wl)
        assert losmimo.channel._pool.cache_info().currsize == 0
        assert threads == {threading.current_thread()}
        set_workers(3)
        for build in (build_channel_set, stream_cross_gram, build_channel_set):
            build(arrays, drop, wl)
        info = losmimo.channel._pool.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        pool_threads = threads - {threading.current_thread()}
        assert 1 <= len(pool_threads) <= 2  # WORKERS - 1
        assert all(thread.name.startswith("losmimo-station") for thread in pool_threads)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    def test_process_forked_after_a_drop_builds_its_own(self, set_workers):
        # a forked child inherits the parent's pool object but none of its
        # threads: a share submitted to that pool would never run
        set_workers(2)
        arrays, drop, wl = _scene(32, 4)
        want = stream_cross_gram(arrays, drop, wl).z
        fork = multiprocessing.get_context("fork")
        receiver, sender = fork.Pipe(duplex=False)
        child = fork.Process(target=lambda: sender.send(stream_cross_gram(arrays, drop, wl).z))
        child.start()
        try:
            child.join(timeout=60)
            assert child.exitcode == 0
            assert receiver.poll(60)
            assert np.array_equal(receiver.recv(), want)
        finally:
            if child.is_alive():
                child.terminate()
                child.join()
            receiver.close()
            sender.close()

    def test_concurrent_callers_under_fast_thread_switching(self, set_workers):
        # more workers than cores, three callers at once, a switch every microsecond:
        # a row written by the wrong share or a buffer shared across threads shows in z
        set_workers(4)
        scenes = [_scene(32, 4, seed=seed) for seed in (1, 2, 3)]
        want = [cross_gram(build_channel_set(*scene).matrices) for scene in scenes]
        failures = []

        def caller(i):
            arrays, drop, wl = scenes[i]
            try:
                for _ in range(20):
                    got = stream_cross_gram(arrays, drop, wl)
                    if not (np.array_equal(got.z, want[i].z)
                            and np.array_equal(got.igram, want[i].igram)):
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


class TestSolveTargets:
    def test_scalar_case(self, rng):
        cs = random_channel_set(rng, cells=1, users=1)
        rho = 8.0
        gain = np.linalg.norm(cs[0, 0]) ** 2
        system = build_pc_system(cross_gram(cs), "MR", "DL", rho)
        zeta = 0.5 * rho * gain
        sol = solve_targets(system, np.array([zeta]))
        assert sol is not None
        assert sol[0] == pytest.approx(zeta / (rho * gain), rel=1e-12)
        # above the interference-free limit the power constraint fails
        assert solve_targets(system, np.array([1.5 * rho * gain])) is None

    def test_zero_targets(self, rng):
        cs = random_channel_set(rng)
        system = build_pc_system(cross_gram(cs), "MR", "UL", 8.0)
        sol = solve_targets(system, np.zeros(6))
        assert sol is not None
        assert np.all(sol == 0)

    @pytest.mark.parametrize("scheme,link", ALL_SCHEMES)
    def test_round_trip(self, rng, scheme, link):
        # achieved SINRs of an admissible allocation are, by construction,
        # feasible targets; solving must reproduce them
        cs = random_channel_set(rng, cells=3, users=4, antennas=16)
        rho = 15.0
        system = build_pc_system(cross_gram(cs), scheme, link, rho)
        eta = _admissible_eta(rng, 3, 4, link)
        flat = eta.ravel()
        zeta = system.d * flat / (1.0 + system.c @ flat)
        sol = solve_targets(system, zeta)
        assert sol is not None
        assert np.allclose(sol, flat, rtol=1e-8)
        achieved = evaluate_allocation(cs, system, sol, rho)
        assert np.allclose(achieved, zeta, rtol=1e-8)

    @given(st.floats(0.05, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_feasibility_monotone_in_scaling(self, c):
        rng = np.random.default_rng(77)
        cs = random_channel_set(rng, cells=2, users=3)
        system = build_pc_system(cross_gram(cs), "MR", "DL", 10.0)
        eta = _admissible_eta(rng, 2, 3, "DL")
        zeta = system.d * eta.ravel() / (1.0 + system.c @ eta.ravel())
        assert solve_targets(system, c * zeta) is not None


class TestMaxmin:
    def test_scalar_optimum(self, rng):
        cs = random_channel_set(rng, cells=1, users=1)
        rho = 8.0
        gain = np.linalg.norm(cs[0, 0]) ** 2
        result = maxmin_common_target(build_pc_system(cross_gram(cs), "MR", "DL", rho))
        assert result.target == pytest.approx(rho * gain, rel=1e-9)

    def test_single_cell_zf_dl_matches_closed_form(self, rng):
        cs = random_channel_set(rng, cells=1, users=4)
        rho = 12.0
        closed = rho / np.sum(cross_gram(cs).inv_diag[0])
        result = maxmin_common_target(build_pc_system(cross_gram(cs), "ZF", "DL", rho))
        assert result.target == pytest.approx(closed, rel=1e-9)

    def test_single_cell_zf_ul_matches_closed_form(self, rng):
        cs = random_channel_set(rng, cells=1, users=4)
        rho = 12.0
        closed = rho / np.max(cross_gram(cs).inv_diag[0])
        result = maxmin_common_target(build_pc_system(cross_gram(cs), "ZF", "UL", rho))
        assert result.target == pytest.approx(closed, rel=1e-9)

    @pytest.mark.parametrize("scheme,link", ALL_SCHEMES)
    def test_bisection_trace_monotone(self, rng, scheme, link):
        cs = random_channel_set(rng, cells=2, users=3)
        system = build_pc_system(cross_gram(cs), scheme, link, 10.0)
        result = maxmin_common_target(system)
        feasible = [z for z, ok in result.trace if ok]
        infeasible = [z for z, ok in result.trace if not ok]
        if feasible and infeasible:
            assert max(feasible) < min(infeasible)
        assert np.allclose(system.sinr(result.eta), result.target, rtol=1e-4)


class TestCertifiedMaxmin:
    """The Newton solve against the bisection reference and the Perron bound,
    on reduced-scale drops and on small random systems."""

    @staticmethod
    def _systems():
        for seed in REDUCED_SEEDS:
            yield from _reduced_systems(seed).values()
        rng = np.random.default_rng(99)
        for _ in range(10):
            cs = random_channel_set(rng, cells=3, users=2, antennas=8)
            for scheme, link in ALL_SCHEMES:
                yield build_pc_system(cross_gram(cs), scheme, link, 10.0 ** rng.uniform(0.0, 3.0))

    def test_at_or_above_bisection_within_its_tolerance(self):
        for system in self._systems():
            target = maxmin_common_target(system).target
            reference = bisection_maxmin(system, rel_tol=1e-6).target
            assert reference <= target <= reference * (1.0 + 1e-6)

    def test_largest_target_solve_targets_accepts(self):
        for system in self._systems():
            result = maxmin_common_target(system)
            n = len(system.d)
            eta = solve_targets(system, np.full(n, result.target))
            assert eta is not None
            assert np.array_equal(eta, result.eta)
            assert solve_targets(system, np.full(n, result.target * (1.0 + 1e-9))) is None
            assert np.allclose(system.sinr(result.eta), result.target, rtol=1e-12)

    def test_below_the_perron_bound(self):
        # target * rho(D^-1 C) < 1, and the target is the exact optimum; the
        # eigensolver is used only in these checks
        for system in self._systems():
            target = maxmin_common_target(system).target
            perron = np.max(np.abs(np.linalg.eigvals(system.c / system.d[:, None])))
            assert target * perron < 1.0
            assert target == pytest.approx(perron_maxmin(system), rel=1e-11)

    @pytest.mark.parametrize("scheme,link", ALL_SCHEMES)
    def test_few_probes_and_a_certified_bracket(self, scheme, link):
        for seed in REDUCED_SEEDS:
            result = maxmin_common_target(_reduced_systems(seed)[scheme, link])
            assert len(result.trace) <= 16
            # both ends were probed: the target itself, and an infeasible
            # target within rel_tol above it
            infeasible = min(z for z, ok in result.trace if not ok)
            assert (result.target, True) in result.trace
            assert infeasible * (1.0 - 1e-12) <= result.target < infeasible

    @pytest.mark.parametrize("link", ["DL", "UL"])
    def test_two_cell_closed_form_and_the_certificate(self, link):
        # D = I and C = [[0, 1/2], [2, 0]]: rho(D^-1 C) = 1, and for mu > 1
        # eta = ((mu + 1/2), (mu + 2)) / (mu^2 - 1), so the binding user 2
        # reaches power 1 at mu^2 - mu - 3 = 0
        system = PcSystem(d=np.ones(2), c=np.array([[0.0, 0.5], [2.0, 0.0]]), scheme="MR",
                          link=link, cells=2, users_per_cell=1)
        result = maxmin_common_target(system)
        assert result.target == pytest.approx(2.0 / (1.0 + np.sqrt(13.0)), rel=1e-12)
        # below the Perron root eta is negative: not feasible, and no step
        # or bound comes from it
        assert losmimo.powerctl._probe(system, 0.5) == (None, None, np.inf)
        eta, _, bound = losmimo.powerctl._probe(system, 4.0)
        assert eta is not None and 1.0 <= bound < 4.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_d_not_finite_and_positive(self, bad):
        system = PcSystem(d=np.array([2.0, bad]), c=np.zeros((2, 2)), scheme="ZF", link="UL",
                          cells=1, users_per_cell=2)
        with pytest.raises(MaxminError, match="ZF UL"):
            maxmin_common_target(system)

    def test_probe_cap(self, monkeypatch):
        system = _reduced_systems(1)["MR", "DL"]
        monkeypatch.setattr(losmimo.powerctl, "MAX_PROBES", 2)
        with pytest.raises(MaxminError, match="MR DL: no certified max-min target within 2"):
            maxmin_common_target(system)

    def test_interference_free_system_in_one_probe(self):
        # C = 0: the interference-free bound is the answer, certified by one
        # probe. D is exact in binary, so cell 0's norm of D^-1 1 is exactly 1
        # (8 users at 1/8 on the downlink, the worst user at 1 on the uplink)
        for link, own, other in (("DL", 8.0, 16.0), ("UL", 1.0, 2.0)):
            d = np.array([own] * 8 + [other] * 48)
            system = PcSystem(d=d, c=np.zeros((56, 56)), scheme="ZF", link=link, cells=7,
                              users_per_cell=8)
            result = maxmin_common_target(system)
            assert len(result.trace) == 1, link
            assert result.target == 1.0, link

    def test_high_snr_corner_is_still_certified(self):
        # at rho = 1e11, mu* lies ~1e-10 rho above rho(D^-1 C), where mu D - C
        # is nearly singular; the answer must still be the exact optimum,
        # reached in a few Newton steps, and a certified probe that
        # solve_targets accepts with the same powers
        rng = np.random.default_rng(5)
        for _ in range(20):
            cs = random_channel_set(rng, cells=2, users=1)
            for scheme, link in ALL_SCHEMES:
                system = build_pc_system(cross_gram(cs), scheme, link, 1e11)
                result = maxmin_common_target(system)
                assert result.target == pytest.approx(perron_maxmin(system), rel=1e-11)
                assert len(result.trace) <= 8
                assert (result.target, True) in result.trace
                eta = solve_targets(system, np.full(2, result.target))
                assert eta is not None
                assert np.array_equal(eta, result.eta)
                perron = np.max(np.abs(np.linalg.eigvals(system.c / system.d[:, None])))
                assert result.target * perron < 1.0


class TestMaxminProperties:
    REL_TOL = 1e-6

    @pytest.mark.parametrize("scheme,link", ALL_SCHEMES)
    @given(log_rho=st.floats(-1.0, 3.0), log_factor=st.floats(0.0, 2.0))
    @settings(max_examples=10, deadline=None)
    def test_target_does_not_fall_as_rho_rises(self, scheme, link, log_rho, log_factor):
        cs = random_channel_set(np.random.default_rng(78), cells=2, users=3)
        xg, rho = cross_gram(cs), 10.0**log_rho
        low, high = (
            maxmin_common_target(build_pc_system(xg, scheme, link, r)).target
            for r in (rho, rho * 10.0**log_factor)
        )
        # max-min stops within its tolerance of the optimum, from below
        assert low <= high / (1.0 - self.REL_TOL)

    @pytest.mark.parametrize("scheme,link", ALL_SCHEMES)
    def test_permuting_users_within_cells(self, rng, scheme, link):
        cells, users = 3, 4
        cs = random_channel_set(rng, cells=cells, users=users, antennas=12)
        perms = [rng.permutation(users) for _ in range(cells)]
        permuted = cs.copy()
        for l, perm in enumerate(perms):
            permuted[:, l] = cs[:, l][..., perm]
        flat_perm = np.concatenate([l * users + perm for l, perm in enumerate(perms)])
        system = build_pc_system(cross_gram(cs), scheme, link, 10.0)
        system_perm = build_pc_system(cross_gram(permuted), scheme, link, 10.0)
        eta = _admissible_eta(rng, cells, users, link).ravel()
        assert np.allclose(system_perm.sinr(eta[flat_perm]), system.sinr(eta)[flat_perm],
                           rtol=1e-12)
        result = maxmin_common_target(system)
        result_perm = maxmin_common_target(system_perm)
        assert result_perm.target == pytest.approx(result.target, rel=self.REL_TOL)
        assert np.allclose(system_perm.sinr(result_perm.eta), system.sinr(result.eta)[flat_perm],
                           rtol=self.REL_TOL)


class TestSingleCellClosedForms:
    def test_dl_normalization_and_equal_sinr(self, rng):
        for _ in range(10):
            cs = random_channel_set(rng, cells=1, users=4, antennas=16)
            g = cs[0, 0]
            rho = 12.0
            xg = cross_gram(cs)
            eta = single_cell_zf_maxmin(xg.inv_diag, "DL")[0]
            assert np.sum(eta) == pytest.approx(1.0, abs=1e-14)
            igram = np.linalg.inv(g.conj().T @ g)
            sinr = rho / np.sum(xg.inv_diag[0])
            assert sinr == pytest.approx(rho / np.sum(np.real(np.diag(igram))), rel=1e-12)
            values = build_pc_system(xg, "ZF", "DL", rho).sinr(eta[None, :])
            assert np.allclose(values[0], sinr, rtol=1e-10)

    def test_ul_normalization_and_equal_sinr(self, rng):
        for _ in range(10):
            cs = random_channel_set(rng, cells=1, users=4, antennas=16)
            rho = 12.0
            xg = cross_gram(cs)
            eta = single_cell_zf_maxmin(xg.inv_diag, "UL")[0]
            sinr = rho / np.max(xg.inv_diag[0])
            assert np.max(eta) == 1.0  # worst user at full power, exactly
            values = build_pc_system(xg, "ZF", "UL", rho).sinr(eta[None, :])
            assert np.allclose(values[0], sinr, rtol=1e-10)

    def test_symmetric_channels_give_uniform_power(self, rng):
        q, _ = np.linalg.qr((rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))))
        inv_diag = cross_gram(q[None, None]).inv_diag
        eta_dl = single_cell_zf_maxmin(inv_diag, "DL")
        eta_ul = single_cell_zf_maxmin(inv_diag, "UL")
        assert np.allclose(eta_dl, 0.25, rtol=1e-10)
        assert np.allclose(eta_ul, 1.0, rtol=1e-10)
