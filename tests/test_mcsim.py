import dataclasses

import numpy as np
import pytest

from losmimo import (
    build_pc_system,
    cross_gram,
    decoder,
    dl_allocation,
    simulate,
    ul_allocation,
)
from losmimo.mcsim import noise_factor

from conftest import random_channel_set
from reference_mcsim import simulate_uplink_per_antenna

N = 50_000
PAIRS = [("MR", "DL"), ("MR", "UL"), ("ZF", "DL"), ("ZF", "UL")]


def uniform_allocation(link, cells=2, users=3):
    if link == "DL":
        return dl_allocation(np.full((cells, users), 0.2))
    return ul_allocation(np.full((cells, users), 0.5))


class TestDownlink:
    def test_single_user_matches_closed_form(self, rng):
        cs = random_channel_set(rng, cells=1, users=1)
        alloc = dl_allocation(np.array([[0.9]]))
        rho = 10.0
        expected = build_pc_system(cross_gram(cs), "MR", "DL", rho).sinr(alloc.eta)
        result = simulate(cs, "MR", alloc, rho, N, seed=5)
        assert np.all(np.abs(result.sinr - expected) < 3 * result.sinr_stderr)

    def test_zero_power_is_pure_noise(self, rng):
        cs = random_channel_set(rng, cells=1, users=2)
        alloc = dl_allocation(np.zeros((1, 2)))
        result = simulate(cs, "MR", alloc, 10.0, N, seed=5)
        assert np.all(result.sinr == 0)
        assert np.allclose(result.interference_noise_power, 1.0, atol=0.05)

    def test_zf_intra_cell_nulling_is_algebraic(self, rng):
        # single cell: ZF removes intra-cell interference symbol-by-symbol, so
        # at a large rho the impairment is the unit receiver noise alone
        cs = random_channel_set(rng, cells=1, users=3)
        alloc = dl_allocation(np.full((1, 3), 0.3))
        result = simulate(cs, "ZF", alloc, 1e12, N, seed=5)
        assert np.allclose(result.interference_noise_power, 1.0, atol=0.05)


class TestUplink:
    def test_single_user_matches_closed_form(self, rng):
        cs = random_channel_set(rng, cells=1, users=1)
        alloc = ul_allocation(np.array([[0.7]]))
        rho = 10.0
        g = cs.serving(0)[:, 0]
        expected = rho * 0.7 * np.linalg.norm(g) ** 2
        result = simulate(cs, "MR", alloc, rho, N, seed=5)
        assert abs(result.sinr[0, 0] - expected) < 3 * result.sinr_stderr[0, 0]

    def test_zf_decoded_noise_variance(self, rng):
        # silent users: decoded noise variance converges to the inverse Gram diagonal
        cs = random_channel_set(rng, cells=1, users=3)
        alloc = ul_allocation(np.zeros((1, 3)))
        result = simulate(cs, "ZF", alloc, 10.0, N, seed=5)
        g = cs.serving(0)
        expected = np.real(np.diag(np.linalg.inv(g.conj().T @ g)))
        assert np.allclose(result.interference_noise_power[0], expected, rtol=0.05)

    def test_mr_decoded_noise_variance(self, rng):
        # silent users: MR decoded noise variance converges to the squared channel norms
        cs = random_channel_set(rng, cells=1, users=3)
        alloc = ul_allocation(np.zeros((1, 3)))
        result = simulate(cs, "MR", alloc, 10.0, N, seed=5)
        expected = np.linalg.norm(cs.serving(0), axis=0) ** 2
        assert np.allclose(result.interference_noise_power[0], expected, rtol=0.05)


# (scheme, antennas) with 3 users per cell; MR with 2 antennas has r = M < K
FACTORED = [("MR", 6), ("ZF", 6), ("MR", 2)]


class TestFactoredUplinkNoise:
    @pytest.mark.parametrize("scheme,antennas", FACTORED)
    def test_decoder_is_factor_times_basis(self, rng, scheme, antennas):
        g = random_channel_set(rng, cells=1, users=3, antennas=antennas).serving(0)
        a = decoder(g, scheme)
        factor = noise_factor(a, g)
        basis = np.linalg.qr(g)[0]
        assert factor.shape == (3, min(antennas, 3))
        assert np.linalg.norm(factor @ basis.conj().T - a) <= 1e-12 * np.linalg.norm(a)

    @pytest.mark.parametrize("scheme,antennas", FACTORED)
    def test_matches_per_antenna_reference(self, rng, scheme, antennas):
        cs = random_channel_set(rng, cells=2, users=3, antennas=antennas)
        alloc = uniform_allocation("UL")
        fast = simulate(cs, scheme, alloc, 10.0, N, seed=7)
        ref = simulate_uplink_per_antenna(cs, scheme, alloc, 10.0, N, seed=8)
        sinr_sigma = np.hypot(fast.sinr_stderr, ref.sinr_stderr)
        assert np.all(np.abs(fast.sinr - ref.sinr) < 5 * sinr_sigma)
        # silent users: the impairment is the decoded noise alone; two
        # independent estimates of one mean, each with the reference's stderr
        silent = ul_allocation(np.zeros((2, 3)))
        fast = simulate(cs, scheme, silent, 10.0, N, seed=7)
        ref = simulate_uplink_per_antenna(cs, scheme, silent, 10.0, N, seed=8)
        noise_sigma = np.sqrt(2.0) * ref.noise_stderr
        assert np.all(np.abs(fast.interference_noise_power - ref.noise_power) < 5 * noise_sigma)


class TestBothLinks:
    @pytest.mark.parametrize("scheme,link", PAIRS)
    def test_deterministic(self, rng, scheme, link):
        cs = random_channel_set(rng)
        alloc = uniform_allocation(link)
        a = simulate(cs, scheme, alloc, 10.0, 5000, seed=3)
        b = simulate(cs, scheme, alloc, 10.0, 5000, seed=3)
        for f in dataclasses.fields(a):
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name

    @pytest.mark.parametrize("cells,users", [(2, 1), (3, 3)], ids=["L-by-1", "L+1-by-K"])
    @pytest.mark.parametrize("link", ["DL", "UL"])
    def test_rejects_allocation_of_wrong_shape(self, rng, link, cells, users):
        cs = random_channel_set(rng, cells=2, users=3)
        with pytest.raises(ValueError, match=rf"\({cells}, {users}\).*\(2, 3\)"):
            simulate(cs, "MR", uniform_allocation(link, cells, users), 10.0, 100, seed=3)

    @pytest.mark.parametrize("link", ["DL", "UL"])
    def test_unknown_scheme(self, rng, link):
        cs = random_channel_set(rng)
        with pytest.raises(ValueError, match="unknown scheme"):
            simulate(cs, "MMSE", uniform_allocation(link), 10.0, 100, seed=3)


class TestOracleAgreement:
    @pytest.mark.parametrize("scheme,link", PAIRS)
    def test_small_instances(self, rng, scheme, link):
        make = dl_allocation if link == "DL" else ul_allocation
        for trial in range(5):
            cells = int(rng.integers(1, 4))
            users = int(rng.integers(1, 5))
            antennas = int(rng.integers(users, 33))
            cs = random_channel_set(rng, cells=cells, users=users, antennas=antennas)
            eta = rng.uniform(0.05, 1.0, (cells, users))
            if link == "DL":
                eta /= np.sum(eta, axis=1, keepdims=True) * 1.1
            rho = 10.0 ** rng.uniform(0.5, 1.5)
            alloc = make(eta)
            closed = build_pc_system(cross_gram(cs), scheme, link, rho).sinr(alloc.eta)
            result = simulate(cs, scheme, alloc, rho, N, seed=100 + trial)
            dev = np.abs(result.sinr - closed) / np.where(result.sinr_stderr > 0,
                                                         result.sinr_stderr, np.inf)
            assert np.max(dev) < 5.0

    def test_mr_uplink_more_users_than_antennas(self, rng):
        # K > M: the decoded noise has r = M dimensions
        cs = random_channel_set(rng, cells=2, users=5, antennas=3)
        alloc = ul_allocation(np.full((2, 5), 0.5))
        closed = build_pc_system(cross_gram(cs), "MR", "UL", 10.0).sinr(alloc.eta)
        result = simulate(cs, "MR", alloc, 10.0, N, seed=9)
        assert np.max(np.abs(result.sinr - closed) / result.sinr_stderr) < 5.0

    def test_invalid_symbol_count(self, rng):
        cs = random_channel_set(rng)
        with pytest.raises(ValueError):
            simulate(cs, "MR", dl_allocation(np.full((2, 3), 0.2)), 10.0, 0, seed=1)
