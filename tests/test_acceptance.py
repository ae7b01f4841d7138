"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import numpy as np

from losmimo import (
    ScenarioConfig,
    build_pc_system,
    circular_array,
    link_budget,
    maxmin_common_target,
    run_scenario,
    simulate,
    single_cell_zf_maxmin,
    solve_targets,
    wavelength_m,
)
from losmimo.mcsim import _processing, _setup

from conftest import random_channel_set
from reference_channel import cross_gram, fspl_db
from reference_mcsim import precoder_powers
from reference_sinr import evaluate_allocation, evaluate_sinr

ALL_SCHEMES = [("MR", "DL"), ("MR", "UL"), ("ZF", "DL"), ("ZF", "UL")]


def _report(num, ok, text):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_1_monte_carlo_agreement():
    """Closed forms match symbol-level simulation within 5 sigma."""
    rng = np.random.default_rng(2024)
    start = time.time()
    worst = 0.0
    for scheme, link in ALL_SCHEMES:
        for trial in range(20):
            cs = random_channel_set(rng, cells=2, users=3, antennas=16)
            eta = rng.uniform(0.05, 1.0, (2, 3))
            if link == "DL":
                eta /= np.sum(eta, axis=1, keepdims=True) * 1.1
            rho = 10.0 ** rng.uniform(0.5, 1.5)
            closed = build_pc_system(cross_gram(cs), scheme, link, rho).sinr(eta)
            result = simulate(cross_gram(cs).z, [(scheme, link, eta, rho)], 100_000, seed=trial)[0]
            sigma = np.where(result.sinr_stderr > 0, result.sinr_stderr, np.inf)
            worst = max(worst, float(np.max(np.abs(result.sinr - closed) / sigma)))
    elapsed = time.time() - start
    _report(1, worst < 5.0 and elapsed < 120.0,
            f"80 instances, worst deviation {worst:.2f} sigma, {elapsed:.1f}s")


def test_criterion_2_power_identities():
    """Transmit power equals ||eta||_1 for the oracle's MR and ZF precoders."""
    rng = np.random.default_rng(7)
    start = time.time()
    worst = 0.0
    for _ in range(100):
        m, k = int(rng.integers(4, 33)), int(rng.integers(1, 5))
        g = (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) / np.sqrt(2 * m)
        eta = rng.uniform(0.01, 1.0 / k, k)
        for scheme in ("MR", "ZF"):
            power = np.sum(precoder_powers(rng, g, scheme, eta))
            worst = max(worst, abs(power - np.sum(eta)) / np.sum(eta))
    elapsed = time.time() - start
    _report(2, worst < 1e-12 and elapsed < 1.0,
            f"100 instances, worst relative error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_zf_nulling():
    """Intra-cell crosstalk of the oracle's ZF precoder is numerically zero."""
    rng = np.random.default_rng(8)
    start = time.time()
    worst = 0.0
    for _ in range(100):
        m, k = int(rng.integers(4, 33)), int(rng.integers(2, 5))
        m = max(m, k)
        g = (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) / np.sqrt(2 * m)
        eta = rng.uniform(0.01, 1.0 / k, k)
        z = (g.conj().T @ g)[None, None]
        crosstalk = _setup(_processing(z, "ZF"), "DL", eta[None], 1.0)[0]  # g^T P
        diag = np.min(np.abs(np.diag(crosstalk)))
        off = np.max(np.abs(crosstalk - np.diag(np.diag(crosstalk))))
        worst = max(worst, off / diag)
    elapsed = time.time() - start
    _report(3, worst < 1e-10 and elapsed < 1.0,
            f"100 instances, worst relative crosstalk {worst:.2e}, {elapsed:.2f}s")


def test_criterion_4_power_control_round_trip():
    """solve_targets reproduces feasible targets; the reference formulas
    (tests/reference_sinr.py) agree with PcSystem.sinr."""
    rng = np.random.default_rng(9)
    start = time.time()
    worst_rt = 0.0
    worst_id = 0.0
    for scheme, link in ALL_SCHEMES:
        for _ in range(5):
            cs = random_channel_set(rng, cells=3, users=4, antennas=16)
            system = build_pc_system(cross_gram(cs), scheme, link, 15.0)
            eta = rng.uniform(0.05, 1.0, (3, 4))
            if link == "DL":
                eta /= np.sum(eta, axis=1, keepdims=True) * 1.1
            flat = eta.ravel()
            zeta = system.d * flat / (1.0 + system.c @ flat)
            sol = solve_targets(system, zeta)
            assert sol is not None
            achieved = evaluate_allocation(cs, system, sol, 15.0)
            worst_rt = max(worst_rt, float(np.max(np.abs(achieved - zeta) / zeta)))
            closed = evaluate_sinr(cs, scheme, link, eta, 15.0).values.ravel()
            ident = system.sinr(flat)
            worst_id = max(worst_id, float(np.max(np.abs(closed - ident) / ident)))
    elapsed = time.time() - start
    _report(4, worst_rt < 1e-8 and worst_id < 1e-10 and elapsed < 5.0,
            f"round-trip {worst_rt:.2e}, identity {worst_id:.2e}, {elapsed:.2f}s")


def test_criterion_5_single_cell_zf_maxmin():
    """Single-cell closed forms: exact norms, equal SINRs, max-min agrees."""
    rng = np.random.default_rng(10)
    start = time.time()
    ok = True
    detail = []
    for _ in range(5):
        cs = random_channel_set(rng, cells=1, users=4, antennas=16)
        inv_diag = cross_gram(cs).inv_diag
        eta_dl = single_cell_zf_maxmin(inv_diag, "DL")[0]
        eta_ul = single_cell_zf_maxmin(inv_diag, "UL")[0]
        sinr_dl = 12.0 / np.sum(inv_diag[0])
        sinr_ul = 12.0 / np.max(inv_diag[0])
        ok &= abs(np.sum(eta_dl) - 1.0) < 1e-14
        ok &= np.max(eta_ul) == 1.0
        zf_dl = build_pc_system(cross_gram(cs), "ZF", "DL", 12.0)
        zf_ul = build_pc_system(cross_gram(cs), "ZF", "UL", 12.0)
        dl_vals = zf_dl.sinr(eta_dl[None, :])[0]
        ul_vals = zf_ul.sinr(eta_ul[None, :])[0]
        ok &= np.max(np.abs(dl_vals - sinr_dl) / sinr_dl) < 1e-10
        ok &= np.max(np.abs(ul_vals - sinr_ul) / sinr_ul) < 1e-10
        maxmin_dl = maxmin_common_target(zf_dl).target
        maxmin_ul = maxmin_common_target(zf_ul).target
        detail.append(abs(maxmin_dl - sinr_dl) / sinr_dl)
        detail.append(abs(maxmin_ul - sinr_ul) / sinr_ul)
        ok &= detail[-2] < 1e-9 and detail[-1] < 1e-9
    elapsed = time.time() - start
    _report(5, ok and elapsed < 5.0,
            f"worst max-min gap {max(detail):.2e}, {elapsed:.2f}s")


def test_criterion_6_link_budget_and_geometry_anchors():
    """Free-space loss, array diameter, and Table-scale SNR anchors."""
    fspl = fspl_db(60.0, 200.0)
    wl = wavelength_m(60.0)
    xy = circular_array(4096, wl, 30.0)[:, :2]
    diameter = 2 * np.max(np.linalg.norm(xy - xy.mean(axis=0), axis=1))
    rho_dl, rho_ul = link_budget(50e6, 2.0, 0.2, 9.0, 9.0)
    rho_d_db = 10 * np.log10(rho_dl)
    rho_u_db = 10 * np.log10(rho_ul)
    ok = (
        abs(fspl - 114.03) < 0.01
        and abs(diameter - 3.26) < 0.01
        and abs(rho_d_db - 121.0) < 0.1
        and abs(rho_u_db - 111.0) < 0.1
    )
    _report(6, ok, f"fspl {fspl:.3f} dB, diameter {diameter:.4f} m, "
                   f"rho_d {rho_d_db:.2f} dB, rho_u {rho_u_db:.2f} dB")


def test_criterion_7_reduced_scale_pipeline():
    """Figure-style CDF pipeline at M=256, K=8, L=7 with 10 drops."""
    cfg = ScenarioConfig(cells=7, antennas_per_cell=256, users_per_cell=8,
                         drops=10, seed=123)
    start = time.time()
    table, summary = run_scenario(cfg)
    elapsed = time.time() - start
    names = sorted(table.series)
    ok = names == sorted(["MR DL", "MR UL", "ZF DL", "ZF UL", "ZF DL-1", "ZF UL-1"])
    for vals in table.series.values():
        ok &= bool(np.all(np.diff(vals) >= 0))
    # max-min series are degenerate per drop: one SINR shared by all 56 users
    for name in ("MR DL", "MR UL", "ZF DL", "ZF UL"):
        ok &= len(np.unique(np.round(table.series[name], 6))) <= cfg.drops
    ok &= elapsed < 600.0
    _report(7, ok, f"six series, {summary['resampled']} re-sampled drops, {elapsed:.1f}s")


def test_criterion_7_full_scale_completes():
    """Full published scale (M=4096, K=18, L=7) runs without error."""
    cfg = ScenarioConfig(drops=2, seed=5)
    start = time.time()
    table, summary = run_scenario(cfg)
    elapsed = time.time() - start
    ok = len(table.series) == 6 and all(len(v) > 0 for v in table.series.values())
    _report("7 (full scale)", ok, f"2 drops at M=4096 in {elapsed:.1f}s")
