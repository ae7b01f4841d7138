"""Workloads, operations and output checks of the losmimo benchmark.

The benchmark is one closed-loop caller, like a researcher at the CLI: it
starts the next operation only when the previous one has returned. An
operation is one `run_scenario` drop (workloads `reduced`, `table1`) or one
`verify` call (workload `verify`). Configs and per-operation seeds are
generated here from the workload seed; losmimo only receives them.
Timing uses `time.perf_counter` alone.
"""

import contextlib
import csv
import dataclasses
import json
import math
import random
import statistics
import time
from pathlib import Path

import numpy as np

import losmimo
from tracing import Tracer, layer_metrics

DEFAULT_SEED = 1
EQUAL_TOL_DB = 1e-6  # max-min gives every user of a drop the same SINR
REFERENCE_TOL_DB = 1e-4  # bisection's rel_tol=1e-6 moves a target by <= 4.3e-6 dB
SYSTEM_SERIES = ("MR DL", "MR UL", "ZF DL", "ZF UL")
SINGLE_CELL_SERIES = ("ZF DL-1", "ZF UL-1")
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Every parameter is written out, so the workloads do not follow changes to
# the package defaults or to the files in scenarios/.
_TABLE1 = {
    "cells": 7, "antennas_per_cell": 4096, "users_per_cell": 18,
    "carrier_ghz": 60.0, "bandwidth_hz": 50e6,
    "bs_noise_figure_db": 9.0, "mobile_noise_figure_db": 9.0,
    "bs_power_w": 2.0, "mobile_power_w": 0.2,
    "bs_array_height_m": 30.0, "user_height_m": 1.5,
    "cell_radius_m": 200.0, "min_bs_distance_m": 10.0,
    "drops": 1, "seed": DEFAULT_SEED,
    "schemes": "MR,ZF", "links": "DL,UL", "single_cell_series": "true",
}
_REDUCED = {**_TABLE1, "antennas_per_cell": 256, "users_per_cell": 8}


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "run" or "verify"
    params: dict
    traced_ops: int  # operations in each pass of a traced run
    reference_drops: int = 0
    symbols: int = 0  # verify only
    warmup_symbols: int = 0  # verify only

    def config_text(self) -> str:
        return "".join(f"{key} = {value}\n" for key, value in self.params.items())


WORKLOADS = {
    w.name: w for w in (
        Workload("reduced", "run", _REDUCED, traced_ops=100, reference_drops=3),
        Workload("table1", "run", _TABLE1, traced_ops=8, reference_drops=1),
        Workload("verify", "verify", _REDUCED, traced_ops=1, symbols=20_000, warmup_symbols=200),
    )
}


def op_seeds(workload: Workload, seed: int):
    """Endless stream of per-operation seeds derived from the workload seed."""
    rng = random.Random(f"{workload.name}/{seed}")
    while True:
        yield rng.getrandbits(63)


def write_config(workload: Workload, work_dir: Path) -> Path:
    path = work_dir / f"{workload.name}.cfg"
    path.write_text(workload.config_text())
    return path


def run_op(cfg, seed: int):
    """One drop, as `losmimo run --drops 1 --seed <seed>` would compute it."""
    return losmimo.run_scenario(dataclasses.replace(cfg, seed=seed, drops=1))


def verify_op(cfg, seed: int, symbols: int):
    return losmimo.verify(dataclasses.replace(cfg, seed=seed), symbols)


def expected_rows(cfg) -> dict:
    per_drop = {
        f"{s} {li}": cfg.cells * cfg.users_per_cell
        for s in cfg.scheme_list() for li in cfg.link_list()
    }
    if cfg.single_cell_series and "ZF" in cfg.scheme_list():
        per_drop.update({name: cfg.users_per_cell for name in SINGLE_CELL_SERIES})
    return per_drop


def drop_problems(cfg, outcome) -> list:
    """Output checks on one drop; an empty list means the drop is correct."""
    if isinstance(outcome, Exception):
        return [f"raised {type(outcome).__name__}: {outcome}"]
    table, summary = outcome
    problems = []
    if summary.get("drops") != 1:
        problems.append(f"summary reports {summary.get('drops')} drops, expected 1")
    want = expected_rows(cfg)
    if set(table.series) != set(want):
        problems.append(f"series {sorted(table.series)} != {sorted(want)}")
    for name, values in table.series.items():
        if len(values) != want.get(name):
            problems.append(f"{name}: {len(values)} values, expected {want.get(name)}")
        if not np.all(np.isfinite(values)):
            problems.append(f"{name}: non-finite values")
        if name in SYSTEM_SERIES and np.ptp(values) > EQUAL_TOL_DB:
            problems.append(f"{name}: users differ by {np.ptp(values):.3g} dB under max-min")
    return problems


def verify_failures(outcome, checks: int) -> int:
    """Failed checks of one verify call: raised, missing, or at/above the threshold."""
    if isinstance(outcome, Exception):
        return checks
    bad = sum(1 for e in outcome.entries if not e.max_dev_sigma < outcome.threshold)
    return bad + max(checks - len(outcome.entries), 0)


def merge_tables(outcomes):
    merged = losmimo.CdfTable()
    good = [o for o in outcomes if not isinstance(o, Exception)]
    for name in (good[0][0].series if good else {}):
        merged.add(name, np.concatenate([table.series[name] for table, _ in good]))
    merged.finalize()
    return merged


def csv_problems(path: Path, cfg, drops: int) -> list:
    """Checks on the written CSV: header, row counts, finite values, cdf ends at 1."""
    counts, last_cdf, problems = {}, {}, []
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, None)
        if header != ["series", "sinr_db", "cdf"]:
            return [f"bad CSV header {header}"]
        for name, value, cdf in rows:
            counts[name] = counts.get(name, 0) + 1
            last_cdf[name] = float(cdf)
            if not (math.isfinite(float(value)) and math.isfinite(float(cdf))):
                problems.append(f"{name}: non-finite CSV value")
    want = {name: n * drops for name, n in expected_rows(cfg).items()}
    if counts != want:
        problems.append(f"CSV row counts {counts} != {want}")
    problems += [f"{name}: last cdf {p!r} != 1" for name, p in last_cdf.items() if p != 1.0]
    return problems


def reference_values(workload: Workload, cfg) -> dict:
    """Sorted per-series dB values of the first drops of the default seed."""
    seeds = op_seeds(workload, DEFAULT_SEED)
    outcomes = [run_op(cfg, next(seeds)) for _ in range(workload.reference_drops)]
    return {name: vals.tolist() for name, vals in merge_tables(outcomes).series.items()}


def reference_problems(workload: Workload, cfg) -> list:
    if workload.kind != "run":
        return []
    stored = json.loads(REFERENCE_PATH.read_text())[workload.name]
    got = reference_values(workload, cfg)
    if set(got) != set(stored):
        return [f"reference series {sorted(got)} != {sorted(stored)}"]
    problems = []
    for name, ref in stored.items():
        if len(got[name]) != len(ref):
            problems.append(f"reference {name}: {len(got[name])} values, expected {len(ref)}")
            continue
        dev = float(np.max(np.abs(np.asarray(got[name]) - np.asarray(ref))))
        if not dev <= REFERENCE_TOL_DB:
            problems.append(f"reference {name}: deviates by {dev:.3g} dB > {REFERENCE_TOL_DB}")
    return problems


@dataclasses.dataclass
class Pass:
    outcomes: list  # per operation: the returned value, or the exception raised
    op_s: list  # per operation wall time
    wall_s: float  # whole loop, including the final CSV write


def _do_op(workload: Workload, cfg, op_seed: int, symbols: int):
    try:
        if workload.kind == "run":
            return run_op(cfg, op_seed)
        return verify_op(cfg, op_seed, symbols)
    except Exception as exc:  # a failing operation is counted, not fatal
        return exc


def run_pass(workload: Workload, cfg, seed: int, csv_path: Path, *, seconds=None, ops=None,
             symbols=None, tracer=None) -> Pass:
    """Closed loop of operations, for `seconds` or for exactly `ops` operations.

    Run workloads end the loop by writing the merged CDF table as CSV.
    """
    symbols = workload.symbols if symbols is None else symbols
    seeds = op_seeds(workload, seed)
    outcomes, op_s = [], []
    start = time.perf_counter()
    while (len(outcomes) < ops) if ops is not None else (time.perf_counter() - start < seconds):
        op_seed = next(seeds)
        t0 = time.perf_counter()
        with tracer.span("bench.op") if tracer else contextlib.nullcontext():
            outcome = _do_op(workload, cfg, op_seed, symbols)
        op_s.append(time.perf_counter() - t0)
        outcomes.append(outcome)
    if workload.kind == "run":
        merge_tables(outcomes).write_csv(csv_path)
    return Pass(outcomes, op_s, time.perf_counter() - start)


def assess(workload: Workload, cfg, result: Pass, csv_path: Path, symbols=None) -> dict:
    """Output checks and throughput of one pass.

    Run workloads: an operation is a drop and fails if it raises or fails a
    drop check; throughput is completed drops over the loop's wall time.
    Verify: an operation is one check (scheme, link) and fails at or above
    the sigma threshold; throughput is the median over calls of
    symbols x checks / call time.
    """
    symbols = workload.symbols if symbols is None else symbols
    outcomes = result.outcomes
    if workload.kind == "run":
        per_drop = [drop_problems(cfg, o) for o in outcomes]
        completed = sum(1 for o in outcomes if not isinstance(o, Exception))
        problems = [f"drop {i}: {p}" for i, ps in enumerate(per_drop) for p in ps]
        problems += csv_problems(csv_path, cfg, completed) if completed else ["no drop completed"]
        return {
            "attempted": len(outcomes),
            "failed": sum(1 for p in per_drop if p),
            "problems": problems,
            "throughput_per_s": completed / result.wall_s,
        }
    checks = len(cfg.scheme_list()) * len(cfg.link_list())
    return {
        "attempted": checks * len(outcomes),
        "failed": sum(verify_failures(o, checks) for o in outcomes),
        "problems": [
            f"verify {i}: " + (repr(o) if isinstance(o, Exception) else "not passed")
            for i, o in enumerate(outcomes) if isinstance(o, Exception) or not o.passed
        ],
        "throughput_per_s": statistics.median(symbols * checks / dt for dt in result.op_s),
    }


def traced_run(workload: Workload, cfg_path: Path, seed: int, work_dir: Path,
               ops=None, symbols=None) -> dict:
    """Per-layer numbers: an untraced and a traced pass over the same operations.

    Both passes run a fixed number of operations, so every count repeats
    exactly for a given seed; their throughput ratio is the tracing overhead.
    """
    ops = workload.traced_ops if ops is None else ops
    symbols = workload.symbols if symbols is None else symbols
    csv_path = work_dir / f"{workload.name}-seed{seed}-traced.csv"
    cfg = losmimo.load_config(cfg_path)
    run_pass(workload, cfg, seed, csv_path, ops=1, symbols=workload.warmup_symbols or symbols)
    plain = run_pass(workload, cfg, seed, csv_path, ops=ops, symbols=symbols)
    plain_checks = assess(workload, cfg, plain, csv_path, symbols)
    tracer = Tracer()
    with tracer.installed():
        cfg = losmimo.load_config(cfg_path)
        traced = run_pass(workload, cfg, seed, csv_path, ops=ops, symbols=symbols, tracer=tracer)
    tracer.write_spans(work_dir / f"spans-{workload.name}-seed{seed}.jsonl")
    traced_checks = assess(workload, cfg, traced, csv_path, symbols)
    metrics = layer_metrics(tracer, ops)
    untraced = plain_checks["throughput_per_s"]
    metrics["trace.throughput_ratio"] = traced_checks["throughput_per_s"] / untraced if untraced else 0.0
    return {
        "attempted": plain_checks["attempted"] + traced_checks["attempted"],
        "failed": plain_checks["failed"] + traced_checks["failed"],
        "problems": plain_checks["problems"] + traced_checks["problems"],
        "missing": tracer.missing,
        "hook_errors": dict(tracer.hook_errors),
        "metrics": metrics,
    }
