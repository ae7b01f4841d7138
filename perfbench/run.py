"""Benchmark of `losmimo run` and `losmimo verify`.

Run from the repository root:

    python3 perfbench/run.py --workload reduced --seed 3 --seconds 30 --trace 0

`--trace 0` measures the end-to-end metrics untraced; `--trace 1` runs the
per-layer pass with every public function of each module wrapped. The
workloads and metrics are listed in BENCHMARK.json and perfbench/README.md.
A human-readable report comes first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
The program is imported from `src/` next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BLAS_THREADS = "1"  # one thread: same table1 speed as two, tighter spread
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

# The name of what throughput_per_s counts, and of the per-operation times
# reported without a bound: on a shared host per-operation times are bimodal
# and their median drifts between sets of runs by more than any allowed bound.
OPERATION_NAMES = {
    "run": {"throughput_per_s": "drops_per_s", "p50": "drop_ms.p50", "p90": "drop_ms.p90"},
    "verify": {"throughput_per_s": "symbols_per_s", "p50": "verify_ms.p50", "p90": "verify_ms.p90"},
}

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, timeout=30)
    return out.stdout.strip() or "unknown"


def _environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
    }


def _setup_seconds(workload, cfg_path: Path, seed: int) -> list:
    """Set-up time of SETUP_PROBES fresh processes, each measured inside itself."""
    cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
           str(cfg_path), workload.kind, str(seed)]
    if workload.kind == "verify":
        cmd.append(str(workload.warmup_symbols))
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=PROBE_TIMEOUT_S, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def _end_to_end(workload, cfg_path: Path, seed: int, seconds: float) -> dict:
    import losmimo
    from workloads import assess, op_seeds, run_pass

    setup = _setup_seconds(workload, cfg_path, next(op_seeds(workload, seed)))
    cfg = losmimo.load_config(cfg_path)
    csv_path = WORK_DIR / f"{workload.name}-seed{seed}.csv"
    result = run_pass(workload, cfg, seed, csv_path, seconds=seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the checks
    checks = assess(workload, cfg, result, csv_path)
    op_ms = [1e3 * dt for dt in result.op_s]
    names = OPERATION_NAMES[workload.kind]
    reported = {names["p50"]: statistics.median(op_ms)}
    if len(op_ms) >= 100:  # p90 then has at least 10 samples beyond it
        reported[names["p90"]] = statistics.quantiles(op_ms, n=10)[-1]
    return {
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "problems": checks["problems"],
        "reported_ms": reported,
        "ops": len(op_ms),
        "wall_s": result.wall_s,
        "op_ms": op_ms,
        "metrics": {
            "throughput_per_s": checks["throughput_per_s"],
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup),
        },
    }


def _report(workload, args, env: dict, result: dict, units: dict) -> None:
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    aliases = {} if args.trace else OPERATION_NAMES[workload.kind]
    for name, unit in units.items():
        label = f"{name} ({aliases[name]})" if name in aliases else name
        print(f"  {label:42s} {result['metrics'][name]:>16.6g} {unit}")
    for name, value in result.get("reported_ms", {}).items():
        print(f"  {name:42s} {value:>16.6g} ms (reported, not bounded)")
    if "ops" in result:
        op = "drop" if workload.kind == "run" else "verify call"
        print(f"  {result['ops']} x {op} in {result['wall_s']:.2f} s (closed loop, one caller)")
    frac = result["failed"] / result["attempted"] if result["attempted"] else float("nan")
    print(f"  {'failed_frac':42s} {frac:>16.6g} ({result['failed']}/{result['attempted']})")
    for note in ("missing", "hook_errors"):
        if result.get(note):
            print(f"  traced targets {note}: {result[note]}")
    for problem in result["problems"][:20]:
        print(f"  CHECK FAILED: {problem}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "losmimo" / "__init__.py").is_file():
        print(f"error: no losmimo sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = BLAS_THREADS
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(SRC))
    import losmimo

    if Path(losmimo.__file__).resolve().parent != SRC / "losmimo":
        print(f"error: imported losmimo from {losmimo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, reference_problems, traced_run, write_config

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    workload = WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    cfg_path = write_config(workload, WORK_DIR)
    env = _environment()
    problems = reference_problems(workload, losmimo.load_config(cfg_path))
    if args.trace:
        result = traced_run(workload, cfg_path, args.seed, WORK_DIR)
    else:
        result = _end_to_end(workload, cfg_path, args.seed, args.seconds)
    result["problems"] = problems + result["problems"]
    if set(result["metrics"]) != set(units):
        raise RuntimeError(f"metrics {sorted(result['metrics'])} != BENCHMARK.json {sorted(units)}")

    _report(workload, args, env, result, units)
    out = WORK_DIR / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"environment": env, **result}, indent=1, default=str))
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": float(result["metrics"][name]), "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
