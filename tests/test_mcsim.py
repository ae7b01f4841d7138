import dataclasses
import sys
import threading
import time

import numpy as np
import pytest

from losmimo import SingularChannelError, build_pc_system, simulate
import losmimo.mcsim
from losmimo.mcsim import _processing, _setup

from conftest import random_channel_set
from reference_channel import cross_gram
from reference_mcsim import decoder, simulate_plain, simulate_uplink_per_antenna

N = 50_000
PAIRS = [("MR", "DL"), ("MR", "UL"), ("ZF", "DL"), ("ZF", "UL")]
CHUNK = losmimo.mcsim._CHUNK_BUDGET // 6  # symbols per chunk at L = 2, K = 3


def uniform_powers(link, cells=2, users=3):
    return np.full((cells, users), 0.2 if link == "DL" else 0.5)


class TestDownlink:
    def test_single_user_matches_closed_form(self, rng):
        cs = random_channel_set(rng, cells=1, users=1)
        eta = np.array([[0.9]])
        rho = 10.0
        expected = build_pc_system(cross_gram(cs), "MR", "DL", rho).sinr(eta)
        result = simulate(cross_gram(cs).z, [("MR", "DL", eta, rho)], N, seed=5)[0]
        assert np.all(np.abs(result.sinr - expected) < 3 * result.sinr_stderr)

    def test_zero_power_is_pure_noise(self, rng):
        cs = random_channel_set(rng, cells=1, users=2)
        result = simulate(cross_gram(cs).z, [("MR", "DL", np.zeros((1, 2)), 10.0)], N, seed=5)[0]
        assert np.all(result.sinr == 0)
        assert np.allclose(result.interference_noise_power, 1.0, atol=0.05)

    def test_zero_rho_is_pure_noise(self, rng):
        cs = random_channel_set(rng, cells=2, users=3)
        checks = [(s, li, uniform_powers(li), 0.0) for s, li in PAIRS]
        for result in simulate(cross_gram(cs).z, checks, N, seed=5):
            assert np.all(result.sinr == 0)
            assert np.all(result.interference_noise_power > 0)

    def test_zf_intra_cell_nulling_is_algebraic(self, rng):
        # single cell: ZF removes intra-cell interference symbol-by-symbol, so
        # at a large rho the impairment is the unit receiver noise alone
        cs = random_channel_set(rng, cells=1, users=3)
        check = ("ZF", "DL", np.full((1, 3), 0.3), 1e12)
        result = simulate(cross_gram(cs).z, [check], N, seed=5)[0]
        assert np.allclose(result.interference_noise_power, 1.0, atol=0.05)


class TestUplink:
    def test_single_user_matches_closed_form(self, rng):
        cs = random_channel_set(rng, cells=1, users=1)
        rho = 10.0
        g = cs[0, 0][:, 0]
        expected = rho * 0.7 * np.linalg.norm(g) ** 2
        result = simulate(cross_gram(cs).z, [("MR", "UL", np.array([[0.7]]), rho)], N, seed=5)[0]
        assert abs(result.sinr[0, 0] - expected) < 3 * result.sinr_stderr[0, 0]

    def test_zf_decoded_noise_variance(self, rng):
        # silent users: decoded noise variance converges to the inverse Gram diagonal
        cs = random_channel_set(rng, cells=1, users=3)
        result = simulate(cross_gram(cs).z, [("ZF", "UL", np.zeros((1, 3)), 10.0)], N, seed=5)[0]
        g = cs[0, 0]
        expected = np.real(np.diag(np.linalg.inv(g.conj().T @ g)))
        assert np.allclose(result.interference_noise_power[0], expected, rtol=0.05)

    def test_mr_decoded_noise_variance(self, rng):
        # silent users: MR decoded noise variance converges to the squared channel norms
        cs = random_channel_set(rng, cells=1, users=3)
        result = simulate(cross_gram(cs).z, [("MR", "UL", np.zeros((1, 3)), 10.0)], N, seed=5)[0]
        expected = np.linalg.norm(cs[0, 0], axis=0) ** 2
        assert np.allclose(result.interference_noise_power[0], expected, rtol=0.05)


# (scheme, antennas) with 3 users per cell; MR with 2 antennas has a
# rank-deficient Gram, K > M
FACTORED = [("MR", 6), ("ZF", 6), ("MR", 2)]


class TestFactoredUplinkNoise:
    @pytest.mark.parametrize("scheme,antennas", FACTORED)
    def test_decoder_is_factor_times_basis(self, rng, scheme, antennas):
        # the polar decomposition A = S U of the decoder, with U = X Y^H from
        # A's thin SVD X diag(s) Y^H: U's rows are orthonormal in A's range,
        # so A w with w ~ CN(0, I_M) has the law of S v with v ~ CN(0, I_K)
        g = random_channel_set(rng, cells=1, users=3, antennas=antennas)[0, 0]
        a = decoder(g, scheme)
        z = cross_gram(g[None, None]).z
        root = _setup(_processing(z, scheme), "UL", np.ones((1, 3)), 1.0)[2][0]
        x, _, yh = np.linalg.svd(a, full_matrices=False)
        assert root.shape == (3, 3)
        assert _close(root.conj().T, root)
        assert _close(root @ (x @ yh), a)
        assert _close(root @ root.conj().T, a @ a.conj().T)

    @pytest.mark.parametrize("scheme,antennas", FACTORED)
    def test_matches_per_antenna_reference(self, rng, scheme, antennas):
        cs = random_channel_set(rng, cells=2, users=3, antennas=antennas)
        eta = uniform_powers("UL")
        fast = simulate(cross_gram(cs).z, [(scheme, "UL", eta, 10.0)], N, seed=7)[0]
        ref = simulate_uplink_per_antenna(cs, scheme, eta, 10.0, N, seed=8)
        sinr_sigma = np.hypot(fast.sinr_stderr, ref.sinr_stderr)
        assert np.all(np.abs(fast.sinr - ref.sinr) < 5 * sinr_sigma)
        # silent users: the impairment is the decoded noise alone; two
        # independent estimates of one mean, each with the reference's stderr
        silent = np.zeros((2, 3))
        fast = simulate(cross_gram(cs).z, [(scheme, "UL", silent, 10.0)], N, seed=7)[0]
        ref = simulate_uplink_per_antenna(cs, scheme, silent, 10.0, N, seed=8)
        noise_sigma = np.sqrt(2.0) * ref.noise_stderr
        assert np.all(np.abs(fast.interference_noise_power - ref.noise_power) < 5 * noise_sigma)


class TestBothLinks:
    @pytest.mark.parametrize("scheme,link", PAIRS)
    def test_deterministic(self, rng, scheme, link):
        cs = random_channel_set(rng)
        check = (scheme, link, uniform_powers(link), 10.0)
        a = simulate(cross_gram(cs).z, [check], 5000, seed=3)[0]
        b = simulate(cross_gram(cs).z, [check], 5000, seed=3)[0]
        for f in dataclasses.fields(a):
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name

    @pytest.mark.parametrize("cells,users", [(2, 1), (3, 3)], ids=["L-by-1", "L+1-by-K"])
    @pytest.mark.parametrize("link", ["DL", "UL"])
    def test_rejects_allocation_of_wrong_shape(self, rng, link, cells, users):
        cs = random_channel_set(rng, cells=2, users=3)
        check = ("MR", link, uniform_powers(link, cells, users), 10.0)
        with pytest.raises(ValueError, match=rf"\({cells}, {users}\).*\(2, 3\)"):
            simulate(cross_gram(cs).z, [check], 100, seed=3)

    @pytest.mark.parametrize("link", ["DL", "UL"])
    def test_unknown_scheme(self, rng, link):
        cs = random_channel_set(rng)
        with pytest.raises(ValueError, match="unknown scheme"):
            simulate(cross_gram(cs).z, [("MMSE", link, uniform_powers(link), 10.0)], 100, seed=3)

    def test_rejects_channels_in_place_of_cross_gram(self, rng):
        cs = random_channel_set(rng)  # (L, L, M, K) = (2, 2, 16, 3)
        with pytest.raises(ValueError, match=r"\(2, 2, 16, 3\) are not \(L, L, K, K\)"):
            simulate(cs, [("MR", "DL", uniform_powers("DL"), 10.0)], 100, seed=3)


class TestSharedDraws:
    def test_each_check_is_bit_identical_to_a_batch_of_one(self, rng):
        z = cross_gram(random_channel_set(rng)).z
        checks = [(scheme, link, uniform_powers(link), 10.0) for scheme, link in PAIRS]
        alone = [simulate(z, [check], 5000, seed=3)[0] for check in checks]
        batch = simulate(z, checks, 5000, seed=3)
        reversed_batch = simulate(z, checks[::-1], 5000, seed=3)[::-1]
        for one, shared, rev in zip(alone, batch, reversed_batch):
            for f in dataclasses.fields(one):
                assert np.array_equal(getattr(shared, f.name), getattr(one, f.name)), f.name
                assert np.array_equal(getattr(rev, f.name), getattr(one, f.name)), f.name

    def test_uplink_with_fewer_antennas_than_users(self, rng):
        # M = 2 < K = 3: the MR UL checks map the 3 noise rows per cell, which
        # the MR DL check of the same batch reads, through a rank-2 root
        cs = random_channel_set(rng, cells=2, users=3, antennas=2)
        xg = cross_gram(cs)
        ul, dl = uniform_powers("UL"), uniform_powers("DL")
        silent = np.zeros((2, 3))
        checks = [("MR", "UL", ul, 10.0), ("MR", "DL", dl, 10.0), ("MR", "UL", silent, 10.0)]
        results = simulate(xg.z, checks, N, seed=7)
        for (link, eta), result in zip([("UL", ul), ("DL", dl)], results):
            closed = build_pc_system(xg, "MR", link, 10.0).sinr(eta)
            assert np.max(np.abs(result.sinr - closed) / result.sinr_stderr) < 5.0, link
        ref = simulate_uplink_per_antenna(cs, "MR", silent, 10.0, N, seed=8)
        noise_sigma = np.sqrt(2.0) * ref.noise_stderr
        assert np.all(np.abs(results[2].interference_noise_power - ref.noise_power) < 5 * noise_sigma)

    def test_empty_batch(self, rng):
        with pytest.raises(ValueError, match="at least one check"):
            simulate(cross_gram(random_channel_set(rng)).z, [], 100, seed=3)

    @pytest.mark.parametrize("scheme,link,eta,rho,match", [
        ("MR", "UL", uniform_powers("UL", 2, 4), 10.0, r"\(2, 4\).*\(2, 3\)"),
        ("MMSE", "UL", uniform_powers("UL"), 10.0, "unknown scheme"),
        ("MR", "total", uniform_powers("DL"), 10.0, "unknown link"),
        ("MR", "DL", [[0.5, -0.1, 0.2], [0.2, 0.2, 0.2]], 10.0, "nonnegative"),
        ("MR", "DL", [[np.nan, 0.1, 0.2], [0.2, 0.2, 0.2]], 10.0, "not NaN"),
        ("MR", "UL", [[np.nan, 0.1, 0.2], [0.5, 0.5, 0.5]], 10.0, "not NaN"),
        ("MR", "DL", [[0.7, 0.7, 0.0], [0.2, 0.2, 0.2]], 10.0, "constraint violated"),  # 1-norm > 1
        ("MR", "UL", [[1.2, 0.3, 0.3], [0.5, 0.5, 0.5]], 10.0, "constraint violated"),  # inf-norm > 1
        ("MR", "DL", uniform_powers("DL"), -1.0, "finite and nonnegative, got -1.0"),
        ("MR", "DL", uniform_powers("DL"), np.nan, "finite and nonnegative, got nan"),
        ("MR", "UL", uniform_powers("UL"), np.inf, "finite and nonnegative, got inf"),
    ], ids=["wrong-shape", "unknown-scheme", "unknown-link", "negative", "nan-DL", "nan-UL",
            "DL-1-norm-above-1", "UL-inf-norm-above-1", "neg-rho", "nan-rho", "inf-rho"])
    def test_a_later_bad_check_fails_before_any_draw(self, rng, monkeypatch, scheme, link, eta,
                                                     rho, match):
        def no_draw(*args):
            raise AssertionError("drew symbols before validating every check")

        monkeypatch.setattr(losmimo.mcsim, "_complex_normal", no_draw)
        cs = random_channel_set(rng)
        good = ("ZF", "DL", uniform_powers("DL"), 10.0)
        with pytest.raises(ValueError, match=match):
            simulate(cross_gram(cs).z, [good, (scheme, link, eta, rho)], 100, seed=3)

    @pytest.mark.parametrize("link", ["DL", "UL"])
    def test_zf_with_more_users_than_antennas_fails_before_any_draw(self, rng, monkeypatch, link):
        def no_draw(*args):
            raise AssertionError("drew symbols before validating every check")

        monkeypatch.setattr(losmimo.mcsim, "_complex_normal", no_draw)
        z = cross_gram(random_channel_set(rng, antennas=2)).z  # K = 3 > M = 2
        checks = [(scheme, link, uniform_powers(link), 10.0) for scheme in ("MR", "ZF")]
        with pytest.raises(SingularChannelError):
            simulate(z, checks, 100, seed=3)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("block", [(1, 1, 2, 0), (0, 1, 0, 2)], ids=["serving", "cross"])
    @pytest.mark.parametrize("scheme", ["MR", "ZF"])
    def test_non_finite_cross_gram_fails_before_any_draw(self, rng, monkeypatch, scheme, block,
                                                         value):
        # a serving Gram's entry is in its lower triangle, the one eigh reads
        draws = []
        draw = losmimo.mcsim._complex_normal

        def counted(*args):
            draws.append(1)
            return draw(*args)

        monkeypatch.setattr(losmimo.mcsim, "_complex_normal", counted)
        z = cross_gram(random_channel_set(rng)).z
        z[block] = value
        checks = [(scheme, link, uniform_powers(link), 10.0) for link in ("DL", "UL")]
        with pytest.raises(SingularChannelError, match="not finite"):
            simulate(z, checks, 100, seed=3)
        assert draws == []


def _same_results(a, b):
    return all(np.array_equal(getattr(x, f.name), getattr(y, f.name))
               for x, y in zip(a, b, strict=True) for f in dataclasses.fields(x))


def _pipeline_checks():
    return [(scheme, link, uniform_powers(link), 10.0) for scheme, link in PAIRS]


class TestPrefetch:
    """Chunk i + 1 drawn on the station pool while chunk i is checked."""

    @pytest.mark.parametrize("n_symbols", [100, 2 * CHUNK, 2 * CHUNK + 100],
                             ids=["under-a-chunk", "two-chunks", "two-and-a-short-chunk"])
    def test_same_bits_for_any_worker_count(self, rng, set_workers, n_symbols):
        z = cross_gram(random_channel_set(rng)).z
        want = simulate_plain(z, _pipeline_checks(), n_symbols, seed=3)
        for workers in (1, 2, 3):
            set_workers(workers)
            assert _same_results(simulate(z, _pipeline_checks(), n_symbols, seed=3), want), workers

    def test_concurrent_callers_under_fast_thread_switching(self, rng, set_workers):
        # three callers share the station pool, a switch every microsecond; each
        # chunk is drawn into a fresh array, so what this guards is the draws'
        # order: a draw from the wrong generator, or out of turn, shows in the bits
        set_workers(2)
        z = cross_gram(random_channel_set(rng)).z
        n_symbols = 2 * CHUNK + 100
        want = [simulate(z, _pipeline_checks(), n_symbols, seed=seed) for seed in (1, 2, 3)]
        failures = []

        def caller(i):
            try:
                for _ in range(3):
                    if not _same_results(simulate(z, _pipeline_checks(), n_symbols, seed=i + 1),
                                         want[i]):
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
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def test_error_mid_loop_leaves_no_draw_running(self, rng, set_workers, monkeypatch):
        set_workers(2)
        z = cross_gram(random_channel_set(rng)).z
        n_symbols = 4 * CHUNK
        want = simulate(z, _pipeline_checks(), n_symbols, seed=3)
        draw = losmimo.mcsim._complex_normal
        caller = threading.current_thread()
        running, started = [], []

        def slow_draw(rng, out):
            started.append(threading.current_thread())
            running.append(1)
            try:
                if threading.current_thread() is not caller:
                    time.sleep(0.05)  # still drawing chunk 4 when chunk 3's check raises
                return draw(rng, out)
            finally:
                running.pop()

        add = losmimo.mcsim._Moments.add
        adds = []

        def failing_in_chunk_3(self, *args):
            adds.append(1)
            if len(adds) == 2 * len(PAIRS) + 1:  # the first check of the third chunk
                raise RuntimeError("check failed")
            return add(self, *args)

        monkeypatch.setattr(losmimo.mcsim, "_complex_normal", slow_draw)
        monkeypatch.setattr(losmimo.mcsim._Moments, "add", failing_in_chunk_3)
        with pytest.raises(RuntimeError, match="check failed"):
            simulate(z, _pipeline_checks(), n_symbols, seed=3)
        assert running == []
        # chunk 1 on the caller, 2 and 3 on the pool, and 4 on the pool while 3 was checked
        assert started[0] is caller and len(started) == 4
        assert all(thread.name.startswith("losmimo-station") for thread in started[1:])
        monkeypatch.setattr(losmimo.mcsim._Moments, "add", add)
        assert _same_results(simulate(z, _pipeline_checks(), n_symbols, seed=3), want)


class TestOracleAgreement:
    @pytest.mark.parametrize("scheme,link", PAIRS)
    def test_small_instances(self, rng, scheme, link):
        for trial in range(5):
            cells = int(rng.integers(1, 4))
            users = int(rng.integers(1, 5))
            antennas = int(rng.integers(users, 33))
            cs = random_channel_set(rng, cells=cells, users=users, antennas=antennas)
            eta = rng.uniform(0.05, 1.0, (cells, users))
            if link == "DL":
                eta /= np.sum(eta, axis=1, keepdims=True) * 1.1
            rho = 10.0 ** rng.uniform(0.5, 1.5)
            closed = build_pc_system(cross_gram(cs), scheme, link, rho).sinr(eta)
            result = simulate(cross_gram(cs).z, [(scheme, link, eta, rho)], N, seed=100 + trial)[0]
            dev = np.abs(result.sinr - closed) / np.where(result.sinr_stderr > 0,
                                                         result.sinr_stderr, np.inf)
            assert np.max(dev) < 5.0

    def test_mr_uplink_more_users_than_antennas(self, rng):
        # K > M: the decoded noise has rank M
        cs = random_channel_set(rng, cells=2, users=5, antennas=3)
        eta = np.full((2, 5), 0.5)
        closed = build_pc_system(cross_gram(cs), "MR", "UL", 10.0).sinr(eta)
        result = simulate(cross_gram(cs).z, [("MR", "UL", eta, 10.0)], N, seed=9)[0]
        assert np.max(np.abs(result.sinr - closed) / result.sinr_stderr) < 5.0

    def test_invalid_symbol_count(self, rng):
        cs = random_channel_set(rng)
        with pytest.raises(ValueError):
            simulate(cross_gram(cs).z, [("MR", "DL", uniform_powers("DL"), 10.0)], 0, seed=1)


def _close(got, want, tol=1e-12):
    """got equals want within tol relative to want's largest entry."""
    return np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


def _antenna_level(cs, scheme, link, eta, rho):
    """(mix, coef, noise covariance) of a check, built from the whole
    (L, L, M, K) channels: station l's decoder A_l, and on the downlink its
    precoder A_l^T with column k scaled to power eta[l, k]."""
    cells, users = cs.shape[0], cs.shape[-1]
    decoders = [decoder(cs[l, l], scheme) for l in range(cells)]
    if link == "DL":
        precoders = [a.T * np.sqrt(eta[l] / np.linalg.norm(a, axis=1) ** 2)
                     for l, a in enumerate(decoders)]
        for p, powers in zip(precoders, eta):
            assert _close(np.linalg.norm(p, axis=0) ** 2, powers)
        eff = np.array([[cs[lp, l].T @ precoders[lp] for lp in range(cells)] for l in range(cells)])
        covariance = None
    else:
        eff = np.array([[a @ cs[l, lp] * np.sqrt(eta[lp]) for lp in range(cells)]
                        for l, a in enumerate(decoders)])
        covariance = np.array([a @ a.conj().T for a in decoders])
    mix = np.sqrt(rho) * eff.transpose(0, 2, 1, 3).reshape(cells * users, -1)
    return mix, np.real(np.diagonal(mix)).reshape(cells, users), covariance


class TestSetupFromCrossGram:
    """The oracle's setup, read from z alone, against the whole tensor's."""

    @pytest.mark.parametrize("antennas,users,pairs", [
        (16, 3, PAIRS),
        (2, 3, [("MR", "DL"), ("MR", "UL")]),  # K > M: only MR, whose Gram is singular
    ], ids=["K<=M", "MR-K>M"])
    def test_same_law_as_the_whole_tensor(self, rng, antennas, users, pairs):
        cs = random_channel_set(rng, cells=3, users=users, antennas=antennas)
        z = cross_gram(cs).z
        for scheme, link in pairs:
            eta = rng.uniform(0.1, 1.0, (3, users))
            if link == "DL":
                eta /= np.sum(eta, axis=1, keepdims=True)
            mix, coef, noise_map = _setup(_processing(z, scheme), link, eta, 10.0)
            want_mix, want_coef, want_covariance = _antenna_level(cs, scheme, link, eta, 10.0)
            assert _close(mix, want_mix) and _close(coef, want_coef), (scheme, link)
            if link == "DL":
                assert noise_map is None
            else:
                # S_l S_l^H = A_l A_l^H: the decoded noise keeps its law
                covariance = noise_map @ noise_map.conj().transpose(0, 2, 1)
                assert _close(covariance, want_covariance), scheme

    def test_one_eigh_per_scheme(self, rng, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        z = cross_gram(random_channel_set(rng, cells=3)).z
        checks = [(s, li, uniform_powers(li, 3, 3), 10.0) for s, li in PAIRS]
        for batch in (checks, checks + checks[::-1], checks[:2]):
            calls.clear()
            simulate(z, batch, 100, seed=3)
            # one stacked eigh of the three serving Grams per scheme, whatever
            # the links and however often a scheme recurs
            assert calls == [(3, 3, 3)] * len({check[0] for check in batch})

    @pytest.mark.parametrize("antennas", [16, 2], ids=["K<=M", "K>M"])
    def test_same_setup_for_any_eigenvector_phases(self, rng, monkeypatch, antennas):
        # eigh fixes each eigenvector only up to a unit phase; the principal
        # root and the Gram inverse do not depend on it
        z = cross_gram(random_channel_set(rng, cells=3, users=3, antennas=antennas)).z
        pairs = PAIRS if antennas >= 3 else [("MR", "DL"), ("MR", "UL")]
        checks = [(s, li, uniform_powers(li, 3, 3), 10.0) for s, li in pairs]
        want = [_setup(_processing(z, s), *check) for s, *check in checks]
        eigh = np.linalg.eigh

        def phased(a):
            # its own phase for each eigenvector of each Gram of the stack
            lam, v = eigh(a)
            phase = rng.random(v.shape[:-2] + v.shape[-1:])[..., None, :]
            return lam, v * np.exp(2j * np.pi * phase)

        monkeypatch.setattr(np.linalg, "eigh", phased)
        for check, (mix, coef, noise_map) in zip(checks, want):
            got = _setup(_processing(z, check[0]), *check[1:])
            assert _close(got[0], mix) and _close(got[1], coef), check[:2]
            if noise_map is not None:
                assert _close(got[2], noise_map), check[:2]
