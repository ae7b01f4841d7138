import numpy as np
import pytest

from losmimo import DegenerateChannelError, SingularChannelError, build_pc_system, gram_inverse
from losmimo.linproc import COND_LIMIT
from losmimo.mcsim import _processing, _setup

from conftest import random_channel_set
from reference_channel import cross_gram
from reference_mcsim import precoder_powers


def closed_sinr(cs, scheme, link, eta, rho):
    """The package's closed-form SINRs (L, K) of the (L, K) powers eta."""
    return build_pc_system(cross_gram(cs), scheme, link, rho).sinr(eta)


def _random_matrix(rng, antennas=16, users=4):
    return (rng.standard_normal((antennas, users)) + 1j * rng.standard_normal((antennas, users))) / np.sqrt(2 * antennas)


def _received(g, scheme, link, eta):
    """One cell's (K, K) effective channel in the oracle (`mcsim._setup`) at
    rho = 1: g^T P for its MR or ZF precoder P on the downlink, A g for its
    decoder A on the uplink, each column scaled to the user's power."""
    z = cross_gram(g[None, None]).z
    return _setup(_processing(z, scheme), link, np.asarray(eta)[None], 1.0)[0]


class TestPrecoders:
    """The oracle's downlink precoders, which it reads from z alone."""

    def test_mr_single_user(self, rng):
        g = _random_matrix(rng, users=1)
        assert _received(g, "MR", "DL", [1.0])[0, 0] == pytest.approx(np.linalg.norm(g), rel=1e-12)
        assert precoder_powers(rng, g, "MR", np.array([1.0])) == pytest.approx([1.0], rel=1e-12)

    def test_mr_zero_power(self, rng):
        g = _random_matrix(rng)
        assert np.all(_received(g, "MR", "DL", np.zeros(4)) == 0)

    def test_mr_zero_column_raises(self, rng):
        g = _random_matrix(rng)
        g[:, 2] = 0
        with pytest.raises(DegenerateChannelError):
            _received(g, "MR", "DL", np.full(4, 0.25))

    @pytest.mark.parametrize("scheme", ["MR", "ZF"])
    def test_power_identity(self, rng, scheme):
        # E(||s||^2) = ||P||_F^2 = ||eta||_1 for unit-variance symbols, each
        # column at its own power
        for _ in range(20):
            g = _random_matrix(rng)
            eta = rng.uniform(0, 0.25, 4)
            powers = precoder_powers(rng, g, scheme, eta)
            assert np.allclose(powers, eta, rtol=1e-12, atol=0)
            assert np.sum(powers) == pytest.approx(np.sum(eta), rel=1e-12)

    def test_zf_nulling(self, rng):
        for _ in range(20):
            g = _random_matrix(rng)
            eta = rng.uniform(0.01, 0.25, 4)
            crosstalk = _received(g, "ZF", "DL", eta)
            diag = np.abs(np.diag(crosstalk))
            off = np.abs(crosstalk - np.diag(np.diag(crosstalk)))
            assert np.max(off) < 1e-10 * np.min(diag)

    def test_zf_diagonal_value(self, rng):
        g = _random_matrix(rng)
        eta = rng.uniform(0.01, 0.25, 4)
        igram = np.linalg.inv(g.conj().T @ g)
        expected = np.sqrt(eta / np.real(np.diag(igram)))
        assert np.allclose(np.diag(_received(g, "ZF", "DL", eta)), expected, rtol=1e-10)

    def test_zf_equals_mr_for_orthogonal_columns(self, rng):
        q, _ = np.linalg.qr(_random_matrix(rng, 16, 4))
        g = q * rng.uniform(0.5, 2.0, 4)[None, :]
        eta = rng.uniform(0.01, 0.25, 4)
        assert np.allclose(_received(g, "ZF", "DL", eta), _received(g, "MR", "DL", eta), atol=1e-12)

    def test_zf_single_user_equals_mr(self, rng):
        g = _random_matrix(rng, users=1)
        eta = np.array([0.7])
        assert np.allclose(_received(g, "ZF", "DL", eta), _received(g, "MR", "DL", eta))

    def test_zf_rank_deficient_raises(self, rng):
        g = _random_matrix(rng)
        g[:, 1] = g[:, 0]
        with pytest.raises(SingularChannelError):
            _received(g, "ZF", "DL", np.full(4, 0.25))
        with pytest.raises(SingularChannelError):
            _received(_random_matrix(rng, antennas=3, users=4), "ZF", "DL", np.full(4, 0.25))


class TestGramInverse:
    @staticmethod
    def _gram(rng, antennas, users):
        g = _random_matrix(rng, antennas, users)
        return g.conj().T @ g

    def test_matches_lu_inverse(self, rng):
        for antennas, users in ((16, 4), (64, 8), (256, 18), (3, 1)):
            gram = self._gram(rng, antennas, users)
            expected = np.linalg.inv(gram)
            error = np.linalg.norm(gram_inverse(gram) - expected)
            assert error <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("antennas,users", [(4, 8), (1, 2), (16, 17)])
    def test_rejects_more_users_than_antennas(self, rng, antennas, users):
        # K - M eigenvalues of the Gram are zero
        with pytest.raises(SingularChannelError):
            gram_inverse(self._gram(rng, antennas, users))

    @pytest.mark.parametrize("users", [2, 5, 18])
    def test_guard_is_the_exact_condition_number(self, rng, users):
        # V diag(lam) V^H with lam_max / lam_min just inside and just outside
        # the limit. A dense V would leave lam_min only accurate to
        # eps * lam_max, so lam_min keeps its own coordinate and V mixes the rest
        v = np.zeros((users, users), dtype=complex)
        v[0, 0] = 1.0
        v[1:, 1:], _ = np.linalg.qr(rng.standard_normal((users - 1,) * 2)
                                    + 1j * rng.standard_normal((users - 1,) * 2))
        rest = np.sort(rng.uniform(0.0, 1.0, users - 1))
        rest[-1] = 1.0
        for factor, accepted in ((1.0 - 1e-6, True), (1.0 + 1e-6, False)):
            lam = np.concatenate(([1.0 / (COND_LIMIT * factor)], rest))
            gram = (v * lam) @ v.conj().T
            if accepted:
                assert np.isfinite(gram_inverse(gram)).all()
            else:
                with pytest.raises(SingularChannelError):
                    gram_inverse(gram)

    @staticmethod
    def _grams(rng, cells, antennas=16, users=4):
        g = random_channel_set(rng, cells=cells, users=users, antennas=antennas)
        own = np.arange(cells)
        return g[own, own].conj().swapaxes(-1, -2) @ g[own, own]

    @pytest.mark.parametrize("cells,users", [(1, 1), (3, 4), (7, 18)])
    def test_stack_matches_per_gram_calls(self, rng, cells, users):
        grams = self._grams(rng, cells, antennas=32, users=users)
        stacked = gram_inverse(grams)
        assert np.array_equal(stacked, np.stack([gram_inverse(gram) for gram in grams]))
        # the caller's own eigendecomposition gives the same bits
        assert np.array_equal(gram_inverse(grams, np.linalg.eigh(grams)), stacked)
        assert np.array_equal(gram_inverse(grams[None, None]), stacked[None, None])

    @pytest.mark.parametrize("station", [0, 2, 6], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("fault", ["rank-deficient", "ill-conditioned", "NaN", "inf"])
    def test_any_station_fails_the_guard(self, rng, station, fault):
        grams = self._grams(rng, 7)
        if fault in ("NaN", "inf"):
            grams[station, 2, 1] = np.nan if fault == "NaN" else np.inf
        else:
            g = _random_matrix(rng)
            g[:, 1] = g[:, 0]
            if fault == "ill-conditioned":
                g[0, 1] += 1e-7  # lam_min about 1e-14 lam_max
            grams[station] = g.conj().T @ g
        with pytest.raises(SingularChannelError):
            gram_inverse(grams)
        if fault not in ("NaN", "inf"):  # eigh does not converge on those
            with pytest.raises(SingularChannelError):
                gram_inverse(grams, np.linalg.eigh(grams))
        others = np.delete(grams, station, axis=0)
        assert np.isfinite(gram_inverse(others)).all()


class TestDecoders:
    """The oracle's uplink decoders, which it reads from z alone."""

    def test_zf_is_left_inverse(self, rng):
        for _ in range(20):
            g = _random_matrix(rng)
            assert np.max(np.abs(_received(g, "ZF", "UL", np.ones(4)) - np.eye(4))) < 1e-12

    def test_mr_is_conjugate_transpose(self, rng):
        # A_l G[l, lp] = G[l, l]^H G[l, lp] = z[l, lp], block (l, lp) of the mix
        z = cross_gram(random_channel_set(rng, cells=2, users=3)).z
        mix = _setup(_processing(z, "MR"), "UL", np.ones((2, 3)), 1.0)[0]
        assert np.array_equal(mix.reshape(2, 3, 2, 3).transpose(0, 2, 1, 3), z)

    def test_unknown_scheme(self, rng):
        g = _random_matrix(rng)
        for link in ("DL", "UL"):
            with pytest.raises(ValueError, match="unknown scheme"):
                _received(g, "MMSE", link, np.full(4, 0.25))


class TestClosedFormDegenerateCases:
    def test_single_user_single_cell(self, rng):
        cs = random_channel_set(rng, cells=1, users=1)
        g = cs[0, 0][:, 0]
        rho = 15.0
        dl = np.array([[0.8]])
        ul = np.array([[0.6]])
        expected_dl = rho * 0.8 * np.linalg.norm(g) ** 2
        expected_ul = rho * 0.6 * np.linalg.norm(g) ** 2
        assert closed_sinr(cs, "MR", "DL", dl, rho)[0, 0] == pytest.approx(expected_dl, rel=1e-12)
        assert closed_sinr(cs, "ZF", "DL", dl, rho)[0, 0] == pytest.approx(expected_dl, rel=1e-12)
        assert closed_sinr(cs, "MR", "UL", ul, rho)[0, 0] == pytest.approx(expected_ul, rel=1e-12)
        assert closed_sinr(cs, "ZF", "UL", ul, rho)[0, 0] == pytest.approx(expected_ul, rel=1e-12)

    def test_orthogonal_channels_no_intra_interference(self, rng):
        q, _ = np.linalg.qr(_random_matrix(rng, 16, 4))
        cs = q[None, None]
        rho = 30.0
        eta = rng.uniform(0.01, 0.25, (1, 4))
        values = closed_sinr(cs, "MR", "DL", eta, rho)
        expected = rho * eta[0] * np.linalg.norm(q, axis=0) ** 2
        assert np.allclose(values[0], expected, rtol=1e-10)

    def test_mr_ul_single_active_user(self, rng):
        cs = random_channel_set(rng, cells=1, users=3)
        eta = np.zeros((1, 3))
        eta[0, 1] = 1.0
        rho = 12.0
        g = cs[0, 0][:, 1]
        values = closed_sinr(cs, "MR", "UL", eta, rho)
        # only noise in the denominator for the active user
        assert values[0, 1] == pytest.approx(rho * np.linalg.norm(g) ** 2, rel=1e-12)

    def test_mr_zf_agree_for_orthogonal_single_cell(self, rng):
        q, _ = np.linalg.qr(_random_matrix(rng, 16, 4))
        g = q * rng.uniform(0.5, 2.0, 4)[None, :]
        cs = g[None, None]
        rho = 25.0
        dl = rng.uniform(0.01, 0.25, (1, 4))
        ul = rng.uniform(0.1, 1.0, (1, 4))
        for link, eta in (("DL", dl), ("UL", ul)):
            mr = closed_sinr(cs, "MR", link, eta, rho)
            assert np.allclose(mr, closed_sinr(cs, "ZF", link, eta, rho), rtol=1e-10)


class TestClosedFormProperties:
    @pytest.mark.parametrize("scheme,link", [("MR", "DL"), ("MR", "UL"), ("ZF", "DL"), ("ZF", "UL")])
    def test_interferer_power_monotonicity(self, rng, scheme, link):
        cs = random_channel_set(rng, cells=2, users=3)
        rho = 10.0
        base = rng.uniform(0.05, 0.15, (2, 3)) if link == "DL" else rng.uniform(0.2, 0.5, (2, 3))
        lo = closed_sinr(cs, scheme, link, base, rho)
        bumped = base.copy()
        bumped[1, 2] *= 1.5
        hi = closed_sinr(cs, scheme, link, bumped, rho)
        mask = np.ones((2, 3), dtype=bool)
        mask[1, 2] = False
        assert np.all(hi[mask] <= lo[mask] + 1e-12)

    @pytest.mark.parametrize("scheme,link", [("MR", "DL"), ("MR", "UL"), ("ZF", "DL"), ("ZF", "UL")])
    def test_scale_covariance(self, rng, scheme, link):
        # scaling all channels by c is the same as scaling rho by |c|^2
        cs = random_channel_set(rng, cells=2, users=3)
        c = 0.37
        scaled = c * cs
        rho = 40.0
        eta = rng.uniform(0.05, 0.2, (2, 3))
        direct = closed_sinr(scaled, scheme, link, eta, rho)
        equivalent = closed_sinr(cs, scheme, link, eta, rho * c**2)
        assert np.allclose(direct, equivalent, rtol=1e-12)

    def test_mr_dl_brute_force_oracle(self, rng):
        # explicit loop evaluation of the SP/(NP+IP+OP) form
        cs = random_channel_set(rng, cells=3, users=2, antennas=8)
        rho = 17.0
        eta = rng.uniform(0.05, 0.3, (3, 2))
        values = closed_sinr(cs, "MR", "DL", eta, rho)
        for l in range(3):
            for k in range(2):
                g_own = cs[l, l][:, k]
                sp = rho * eta[l, k] * np.linalg.norm(g_own) ** 2
                denom = 1.0
                for kp in range(2):
                    if kp == k:
                        continue
                    gp = cs[l, l][:, kp]
                    denom += rho * eta[l, kp] * abs(g_own.conj() @ gp) ** 2 / np.linalg.norm(gp) ** 2
                for lp in range(3):
                    if lp == l:
                        continue
                    g_cross = cs[lp, l][:, k]
                    for kp in range(2):
                        gp = cs[lp, lp][:, kp]
                        denom += rho * eta[lp, kp] * abs(g_cross.conj() @ gp) ** 2 / np.linalg.norm(gp) ** 2
                assert values[l, k] == pytest.approx(sp / denom, rel=1e-12)

    def test_mr_ul_brute_force_oracle(self, rng):
        cs = random_channel_set(rng, cells=3, users=2, antennas=8)
        rho = 9.0
        eta = rng.uniform(0.1, 1.0, (3, 2))
        values = closed_sinr(cs, "MR", "UL", eta, rho)
        for l in range(3):
            for k in range(2):
                g_own = cs[l, l][:, k]
                n2 = np.linalg.norm(g_own) ** 2
                acc = 0.0
                for lp in range(3):
                    for kp in range(2):
                        if lp == l and kp == k:
                            continue
                        acc += eta[lp, kp] * abs(g_own.conj() @ cs[l, lp][:, kp]) ** 2
                expected = rho * eta[l, k] * n2 / (1 + rho / n2 * acc)
                assert values[l, k] == pytest.approx(expected, rel=1e-12)

    def test_zf_ul_brute_force_oracle(self, rng):
        cs = random_channel_set(rng, cells=2, users=3, antennas=12)
        rho = 11.0
        eta = rng.uniform(0.1, 1.0, (2, 3))
        values = closed_sinr(cs, "ZF", "UL", eta, rho)
        for l in range(2):
            g = cs[l, l]
            igram = np.linalg.inv(g.conj().T @ g)
            for k in range(3):
                op = 0.0
                for lp in range(2):
                    if lp == l:
                        continue
                    b = igram @ g.conj().T @ cs[l, lp]
                    for kp in range(3):
                        op += abs(b[k, kp]) ** 2 * eta[lp, kp]
                expected = rho * eta[l, k] / (np.real(igram[k, k]) + rho * op)
                assert values[l, k] == pytest.approx(expected, rel=1e-12)

    def test_zf_dl_brute_force_oracle(self, rng):
        cs = random_channel_set(rng, cells=2, users=3, antennas=12)
        rho = 13.0
        eta = rng.uniform(0.05, 0.3, (2, 3))
        values = closed_sinr(cs, "ZF", "DL", eta, rho)
        for l in range(2):
            g_own = cs[l, l]
            igram_own = np.linalg.inv(g_own.conj().T @ g_own)
            for k in range(3):
                op = 0.0
                for lp in range(2):
                    if lp == l:
                        continue
                    g_int = cs[lp, lp]
                    igram = np.linalg.inv(g_int.conj().T @ g_int)
                    row = cs[lp, l][:, k].conj() @ g_int @ igram
                    for kp in range(3):
                        op += abs(row[kp]) ** 2 / np.real(igram[kp, kp]) * eta[lp, kp]
                expected = rho * eta[l, k] / ((1 + rho * op) * np.real(igram_own[k, k]))
                assert values[l, k] == pytest.approx(expected, rel=1e-12)
