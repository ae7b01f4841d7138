"""Tests of the benchmark itself. From the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import sys
import time

import pytest

import losmimo
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, traced_run, write_config

# Counts made by the program's own call structure; they must not depend on timing.
EXACT = (
    "powerctl.solve_targets.calls",
    "powerctl.maxmin.feasible_ratio",
    "linproc.gram_inverse.calls",
    "linproc.gram_inverse.useful_ratio",
    "mcsim.simulate.calls",
    "mcsim.normal_draws",
    "scenario.csv_bytes",
    "scenario.resample_ratio",
    "trace.missing_targets",
    "trace.hook_errors",
)


@pytest.mark.parametrize("name,ops,symbols", [("reduced", 3, None), ("verify", 1, 200)])
def test_counts_repeat_exactly_for_a_seed(tmp_path, name, ops, symbols):
    workload = WORKLOADS[name]
    cfg_path = write_config(workload, tmp_path)
    first, second = (
        traced_run(workload, cfg_path, 7, tmp_path, ops=ops, symbols=symbols) for _ in range(2)
    )
    assert first["failed"] == second["failed"] == 0
    assert {k: first["metrics"][k] for k in EXACT} == {k: second["metrics"][k] for k in EXACT}


def test_reduced_drop_counts_match_the_call_structure(tmp_path):
    workload = WORKLOADS["reduced"]
    run = traced_run(workload, write_config(workload, tmp_path), 7, tmp_path, ops=2)
    # 7 cells x (ZF DL + ZF UL systems, two single-cell series, two ZF SINRs)
    assert run["metrics"]["linproc.gram_inverse.calls"] == 42
    assert run["metrics"]["linproc.gram_inverse.useful_ratio"] == pytest.approx(7 / 42)
    assert run["metrics"]["mcsim.simulate.calls"] == 0


def test_removed_target_reports_zero_calls():
    tracer = Tracer(targets=[("powerctl", "no_such_function", None),
                             ("no_such_module", "f", None)])
    with tracer.installed():
        losmimo.ScenarioConfig().validate()
    metrics = layer_metrics(tracer, ops=1)
    assert tracer.missing == ["powerctl.no_such_function", "no_such_module.f"]
    assert metrics["trace.missing_targets"] == 2
    assert metrics["powerctl.solve_targets.calls"] == 0


def test_install_restores_every_binding():
    before = (losmimo.powerctl.solve_targets, losmimo.scenario.run_scenario,
              losmimo.CdfTable.write_csv, losmimo.gram_inverse)
    with Tracer().installed():
        assert losmimo.powerctl.solve_targets is not before[0]
        assert losmimo.gram_inverse is not before[3]
    after = (losmimo.powerctl.solve_targets, losmimo.scenario.run_scenario,
             losmimo.CdfTable.write_csv, losmimo.gram_inverse)
    assert after == before


@pytest.fixture
def fake_package():
    """A one-module package `fakepkg` with `fakepkg.m` registered in sys.modules."""
    module = type(sys)("fakepkg.m")
    sys.modules["fakepkg"] = sys.modules["fakepkg.m"] = module
    yield module
    del sys.modules["fakepkg"], sys.modules["fakepkg.m"]


def test_failing_hook_is_counted_not_raised(fake_package):
    def broken_hook(tracer, span, args, kwargs, result):
        raise KeyError("drops")

    fake_package.f = lambda x: x + 1
    tracer = Tracer(targets=[("m", "f", broken_hook)], package="fakepkg")
    with tracer.installed():
        assert fake_package.f(1) == 2
    assert tracer.hook_errors == {"m.f: KeyError: 'drops'": 1}
    assert layer_metrics(tracer, ops=1)["trace.hook_errors"] == 1


def test_self_time_excludes_children(fake_package):
    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.02)
        fake_package.inner()

    fake_package.inner, fake_package.outer = inner, outer
    tracer = Tracer(targets=[("m", "inner", None), ("m", "outer", None)], package="fakepkg")
    with tracer.installed():
        fake_package.outer()
    self_s = tracer.self_seconds()
    (_, _, o_start, o_end), (_, parent, i_start, i_end) = tracer.spans
    assert parent == 0
    assert self_s["m.outer"] == pytest.approx((o_end - o_start) - (i_end - i_start))
    assert self_s["m.inner"] == pytest.approx(i_end - i_start)
    assert 0.015 < self_s["m.outer"] < (o_end - o_start) - 0.015
