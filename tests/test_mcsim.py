import dataclasses

import numpy as np
import pytest

from losmimo import build_pc_system, cross_gram, decoder, simulate
import losmimo.mcsim
from losmimo.mcsim import noise_factor

from conftest import random_channel_set
from reference_mcsim import simulate_uplink_per_antenna

N = 50_000
PAIRS = [("MR", "DL"), ("MR", "UL"), ("ZF", "DL"), ("ZF", "UL")]


def uniform_powers(link, cells=2, users=3):
    return np.full((cells, users), 0.2 if link == "DL" else 0.5)


class TestDownlink:
    def test_single_user_matches_closed_form(self, rng):
        cs = random_channel_set(rng, cells=1, users=1)
        eta = np.array([[0.9]])
        rho = 10.0
        expected = build_pc_system(cross_gram(cs), "MR", "DL", rho).sinr(eta)
        result = simulate(cs, [("MR", "DL", eta, rho)], N, seed=5)[0]
        assert np.all(np.abs(result.sinr - expected) < 3 * result.sinr_stderr)

    def test_zero_power_is_pure_noise(self, rng):
        cs = random_channel_set(rng, cells=1, users=2)
        result = simulate(cs, [("MR", "DL", np.zeros((1, 2)), 10.0)], N, seed=5)[0]
        assert np.all(result.sinr == 0)
        assert np.allclose(result.interference_noise_power, 1.0, atol=0.05)

    def test_zf_intra_cell_nulling_is_algebraic(self, rng):
        # single cell: ZF removes intra-cell interference symbol-by-symbol, so
        # at a large rho the impairment is the unit receiver noise alone
        cs = random_channel_set(rng, cells=1, users=3)
        result = simulate(cs, [("ZF", "DL", np.full((1, 3), 0.3), 1e12)], N, seed=5)[0]
        assert np.allclose(result.interference_noise_power, 1.0, atol=0.05)


class TestUplink:
    def test_single_user_matches_closed_form(self, rng):
        cs = random_channel_set(rng, cells=1, users=1)
        rho = 10.0
        g = cs[0, 0][:, 0]
        expected = rho * 0.7 * np.linalg.norm(g) ** 2
        result = simulate(cs, [("MR", "UL", np.array([[0.7]]), rho)], N, seed=5)[0]
        assert abs(result.sinr[0, 0] - expected) < 3 * result.sinr_stderr[0, 0]

    def test_zf_decoded_noise_variance(self, rng):
        # silent users: decoded noise variance converges to the inverse Gram diagonal
        cs = random_channel_set(rng, cells=1, users=3)
        result = simulate(cs, [("ZF", "UL", np.zeros((1, 3)), 10.0)], N, seed=5)[0]
        g = cs[0, 0]
        expected = np.real(np.diag(np.linalg.inv(g.conj().T @ g)))
        assert np.allclose(result.interference_noise_power[0], expected, rtol=0.05)

    def test_mr_decoded_noise_variance(self, rng):
        # silent users: MR decoded noise variance converges to the squared channel norms
        cs = random_channel_set(rng, cells=1, users=3)
        result = simulate(cs, [("MR", "UL", np.zeros((1, 3)), 10.0)], N, seed=5)[0]
        expected = np.linalg.norm(cs[0, 0], axis=0) ** 2
        assert np.allclose(result.interference_noise_power[0], expected, rtol=0.05)


# (scheme, antennas) with 3 users per cell; MR with 2 antennas has r = M < K
FACTORED = [("MR", 6), ("ZF", 6), ("MR", 2)]


class TestFactoredUplinkNoise:
    @pytest.mark.parametrize("scheme,antennas", FACTORED)
    def test_decoder_is_factor_times_basis(self, rng, scheme, antennas):
        g = random_channel_set(rng, cells=1, users=3, antennas=antennas)[0, 0]
        a = decoder(g, scheme)
        factor = noise_factor(a, g)
        basis = np.linalg.qr(g)[0]
        assert factor.shape == (3, min(antennas, 3))
        assert np.linalg.norm(factor @ basis.conj().T - a) <= 1e-12 * np.linalg.norm(a)

    @pytest.mark.parametrize("scheme,antennas", FACTORED)
    def test_matches_per_antenna_reference(self, rng, scheme, antennas):
        cs = random_channel_set(rng, cells=2, users=3, antennas=antennas)
        eta = uniform_powers("UL")
        fast = simulate(cs, [(scheme, "UL", eta, 10.0)], N, seed=7)[0]
        ref = simulate_uplink_per_antenna(cs, scheme, eta, 10.0, N, seed=8)
        sinr_sigma = np.hypot(fast.sinr_stderr, ref.sinr_stderr)
        assert np.all(np.abs(fast.sinr - ref.sinr) < 5 * sinr_sigma)
        # silent users: the impairment is the decoded noise alone; two
        # independent estimates of one mean, each with the reference's stderr
        silent = np.zeros((2, 3))
        fast = simulate(cs, [(scheme, "UL", silent, 10.0)], N, seed=7)[0]
        ref = simulate_uplink_per_antenna(cs, scheme, silent, 10.0, N, seed=8)
        noise_sigma = np.sqrt(2.0) * ref.noise_stderr
        assert np.all(np.abs(fast.interference_noise_power - ref.noise_power) < 5 * noise_sigma)


class TestBothLinks:
    @pytest.mark.parametrize("scheme,link", PAIRS)
    def test_deterministic(self, rng, scheme, link):
        cs = random_channel_set(rng)
        check = (scheme, link, uniform_powers(link), 10.0)
        a = simulate(cs, [check], 5000, seed=3)[0]
        b = simulate(cs, [check], 5000, seed=3)[0]
        for f in dataclasses.fields(a):
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name

    @pytest.mark.parametrize("cells,users", [(2, 1), (3, 3)], ids=["L-by-1", "L+1-by-K"])
    @pytest.mark.parametrize("link", ["DL", "UL"])
    def test_rejects_allocation_of_wrong_shape(self, rng, link, cells, users):
        cs = random_channel_set(rng, cells=2, users=3)
        with pytest.raises(ValueError, match=rf"\({cells}, {users}\).*\(2, 3\)"):
            simulate(cs, [("MR", link, uniform_powers(link, cells, users), 10.0)], 100, seed=3)

    @pytest.mark.parametrize("link", ["DL", "UL"])
    def test_unknown_scheme(self, rng, link):
        cs = random_channel_set(rng)
        with pytest.raises(ValueError, match="unknown scheme"):
            simulate(cs, [("MMSE", link, uniform_powers(link), 10.0)], 100, seed=3)


class TestSharedDraws:
    def test_each_check_is_bit_identical_to_a_batch_of_one(self, rng):
        cs = random_channel_set(rng)  # K = 3 <= M = 16: every check reads all K noise rows
        checks = [(scheme, link, uniform_powers(link), 10.0) for scheme, link in PAIRS]
        alone = [simulate(cs, [check], 5000, seed=3)[0] for check in checks]
        batch = simulate(cs, checks, 5000, seed=3)
        reversed_batch = simulate(cs, checks[::-1], 5000, seed=3)[::-1]
        for one, shared, rev in zip(alone, batch, reversed_batch):
            for f in dataclasses.fields(one):
                assert np.array_equal(getattr(shared, f.name), getattr(one, f.name)), f.name
                assert np.array_equal(getattr(rev, f.name), getattr(one, f.name)), f.name

    def test_uplink_with_fewer_antennas_than_users(self, rng):
        # M = 2 < K = 3: the MR UL checks read the first 2 of the 3 noise rows
        # per cell, all of which the MR DL check of the same batch reads
        cs = random_channel_set(rng, cells=2, users=3, antennas=2)
        xg = cross_gram(cs)
        ul, dl = uniform_powers("UL"), uniform_powers("DL")
        silent = np.zeros((2, 3))
        checks = [("MR", "UL", ul, 10.0), ("MR", "DL", dl, 10.0), ("MR", "UL", silent, 10.0)]
        results = simulate(cs, checks, N, seed=7)
        for (link, eta), result in zip([("UL", ul), ("DL", dl)], results):
            closed = build_pc_system(xg, "MR", link, 10.0).sinr(eta)
            assert np.max(np.abs(result.sinr - closed) / result.sinr_stderr) < 5.0, link
        ref = simulate_uplink_per_antenna(cs, "MR", silent, 10.0, N, seed=8)
        noise_sigma = np.sqrt(2.0) * ref.noise_stderr
        assert np.all(np.abs(results[2].interference_noise_power - ref.noise_power) < 5 * noise_sigma)

    def test_empty_batch(self, rng):
        with pytest.raises(ValueError, match="at least one check"):
            simulate(random_channel_set(rng), [], 100, seed=3)

    @pytest.mark.parametrize("scheme,link,eta,match", [
        ("MR", "UL", uniform_powers("UL", 2, 4), r"\(2, 4\).*\(2, 3\)"),
        ("MMSE", "UL", uniform_powers("UL"), "unknown scheme"),
        ("MR", "total", uniform_powers("DL"), "unknown link"),
        ("MR", "DL", [[0.5, -0.1, 0.2], [0.2, 0.2, 0.2]], "nonnegative"),
        ("MR", "DL", [[np.nan, 0.1, 0.2], [0.2, 0.2, 0.2]], "not NaN"),
        ("MR", "UL", [[np.nan, 0.1, 0.2], [0.5, 0.5, 0.5]], "not NaN"),
        ("MR", "DL", [[0.7, 0.7, 0.0], [0.2, 0.2, 0.2]], "constraint violated"),  # 1-norm > 1
        ("MR", "UL", [[1.2, 0.3, 0.3], [0.5, 0.5, 0.5]], "constraint violated"),  # inf-norm > 1
    ], ids=["wrong-shape", "unknown-scheme", "unknown-link", "negative", "nan-DL", "nan-UL",
            "DL-1-norm-above-1", "UL-inf-norm-above-1"])
    def test_a_later_bad_check_fails_before_any_draw(self, rng, monkeypatch, scheme, link, eta,
                                                     match):
        def no_draw(*args):
            raise AssertionError("drew symbols before validating every check")

        monkeypatch.setattr(losmimo.mcsim, "_complex_normal", no_draw)
        cs = random_channel_set(rng)
        good = ("ZF", "DL", uniform_powers("DL"), 10.0)
        with pytest.raises(ValueError, match=match):
            simulate(cs, [good, (scheme, link, eta, 10.0)], 100, seed=3)


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
            result = simulate(cs, [(scheme, link, eta, rho)], N, seed=100 + trial)[0]
            dev = np.abs(result.sinr - closed) / np.where(result.sinr_stderr > 0,
                                                         result.sinr_stderr, np.inf)
            assert np.max(dev) < 5.0

    def test_mr_uplink_more_users_than_antennas(self, rng):
        # K > M: the decoded noise has r = M dimensions
        cs = random_channel_set(rng, cells=2, users=5, antennas=3)
        eta = np.full((2, 5), 0.5)
        closed = build_pc_system(cross_gram(cs), "MR", "UL", 10.0).sinr(eta)
        result = simulate(cs, [("MR", "UL", eta, 10.0)], N, seed=9)[0]
        assert np.max(np.abs(result.sinr - closed) / result.sinr_stderr) < 5.0

    def test_invalid_symbol_count(self, rng):
        cs = random_channel_set(rng)
        with pytest.raises(ValueError):
            simulate(cs, [("MR", "DL", uniform_powers("DL"), 10.0)], 0, seed=1)
