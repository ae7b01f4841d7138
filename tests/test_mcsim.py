import numpy as np
import pytest

from losmimo import (
    build_pc_system,
    dl_allocation,
    simulate_dl,
    simulate_ul,
    ul_allocation,
)

from conftest import random_channel_set

N = 50_000


class TestDownlink:
    def test_single_user_matches_closed_form(self, rng):
        cs = random_channel_set(rng, cells=1, users=1)
        alloc = dl_allocation(np.array([[0.9]]))
        rho = 10.0
        expected = build_pc_system(cs, "MR", "DL", rho).sinr(alloc.eta)
        result = simulate_dl(cs, "MR", alloc, rho, N, seed=5)
        assert np.all(np.abs(result.sinr - expected) < 3 * result.sinr_stderr)

    def test_zero_power_is_pure_noise(self, rng):
        cs = random_channel_set(rng, cells=1, users=2)
        alloc = dl_allocation(np.zeros((1, 2)))
        result = simulate_dl(cs, "MR", alloc, 10.0, N, seed=5)
        assert np.all(result.signal_power == 0)
        assert np.allclose(result.noise_power, 1.0, atol=0.05)
        assert np.allclose(result.total_power, 1.0, atol=0.05)

    def test_zf_intra_cell_nulling_is_algebraic(self, rng):
        # single cell: ZF removes intra-cell interference symbol-by-symbol
        cs = random_channel_set(rng, cells=1, users=3)
        alloc = dl_allocation(np.full((1, 3), 0.3))
        result = simulate_dl(cs, "ZF", alloc, 10.0, 2000, seed=5)
        assert np.all(result.interference_power < 1e-8 * result.signal_power)

    def test_transmit_power_accounting(self, rng):
        cs = random_channel_set(rng, cells=2, users=3)
        eta = rng.uniform(0.05, 0.2, (2, 3))
        alloc = dl_allocation(eta)
        for scheme in ("MR", "ZF"):
            result = simulate_dl(cs, scheme, alloc, 10.0, N, seed=6)
            target = np.sum(eta, axis=1)
            assert np.all(np.abs(result.tx_power - target) < 3 * result.tx_power_stderr)

    def test_deterministic(self, rng):
        cs = random_channel_set(rng)
        alloc = dl_allocation(np.full((2, 3), 0.2))
        a = simulate_dl(cs, "MR", alloc, 10.0, 5000, seed=3)
        b = simulate_dl(cs, "MR", alloc, 10.0, 5000, seed=3)
        assert np.array_equal(a.sinr, b.sinr)
        assert np.array_equal(a.interference_power, b.interference_power)

    def test_decomposition_is_exact(self, rng):
        cs = random_channel_set(rng)
        alloc = dl_allocation(np.full((2, 3), 0.2))
        result = simulate_dl(cs, "MR", alloc, 10.0, 5000, seed=3)
        assert result.recon_residual < 1e-10


class TestUplink:
    def test_single_user_matches_closed_form(self, rng):
        cs = random_channel_set(rng, cells=1, users=1)
        alloc = ul_allocation(np.array([[0.7]]))
        rho = 10.0
        g = cs.serving(0)[:, 0]
        expected = rho * 0.7 * np.linalg.norm(g) ** 2
        result = simulate_ul(cs, "MR", alloc, rho, N, seed=5)
        assert abs(result.sinr[0, 0] - expected) < 3 * result.sinr_stderr[0, 0]

    def test_zf_decoded_noise_variance(self, rng):
        # silent users: decoded noise variance converges to the inverse Gram diagonal
        cs = random_channel_set(rng, cells=1, users=3)
        alloc = ul_allocation(np.zeros((1, 3)))
        result = simulate_ul(cs, "ZF", alloc, 10.0, N, seed=5)
        g = cs.serving(0)
        expected = np.real(np.diag(np.linalg.inv(g.conj().T @ g)))
        assert np.allclose(result.noise_power[0], expected, rtol=0.05)

    def test_deterministic(self, rng):
        cs = random_channel_set(rng)
        alloc = ul_allocation(np.full((2, 3), 0.5))
        a = simulate_ul(cs, "ZF", alloc, 10.0, 5000, seed=3)
        b = simulate_ul(cs, "ZF", alloc, 10.0, 5000, seed=3)
        assert np.array_equal(a.sinr, b.sinr)

    def test_decomposition_is_exact(self, rng):
        cs = random_channel_set(rng)
        alloc = ul_allocation(np.full((2, 3), 0.5))
        result = simulate_ul(cs, "ZF", alloc, 10.0, 5000, seed=3)
        assert result.recon_residual < 1e-10


class TestOracleAgreement:
    @pytest.mark.parametrize("scheme,link", [("MR", "DL"), ("MR", "UL"), ("ZF", "DL"), ("ZF", "UL")])
    def test_small_instances(self, rng, scheme, link):
        sim = simulate_dl if link == "DL" else simulate_ul
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
            closed = build_pc_system(cs, scheme, link, rho).sinr(alloc.eta)
            result = sim(cs, scheme, alloc, rho, N, seed=100 + trial)
            dev = np.abs(result.sinr - closed) / np.where(result.sinr_stderr > 0,
                                                         result.sinr_stderr, np.inf)
            assert np.max(dev) < 5.0

    def test_invalid_symbol_count(self, rng):
        cs = random_channel_set(rng)
        with pytest.raises(ValueError):
            simulate_dl(cs, "MR", dl_allocation(np.full((2, 3), 0.2)), 10.0, 0, seed=1)
