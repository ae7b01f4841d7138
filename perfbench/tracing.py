"""Span tracing of losmimo's public functions, applied from outside the package.

`Tracer.installed()` rebinds each traced function in every loaded
``losmimo`` module namespace, so calls that go through a module's own
``from .x import f`` copy are seen as well. Spans (name, parent, start, end)
are kept in memory; `write_spans` writes them out once the run has ended.
A target that no longer exists is recorded as missing and reports zero calls.
"""

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _label_scheme_link(tracer, span, args, kwargs, result):
    span[0] += f".{_arg(args, kwargs, 1, 'scheme')}_{_arg(args, kwargs, 2, 'link')}"


def _count_feasible(tracer, span, args, kwargs, result):
    tracer.counts["powerctl.solve_targets.feasible"] += int(bool(result.feasible))


def _count_exponentials(tracer, span, args, kwargs, result):
    cells, _, antennas, users = result.matrices.shape
    tracer.counts["channel.exponentials"] += cells * cells * antennas * users


def _record_gram_operand(tracer, span, args, kwargs, result):
    # A serving matrix is identified by its shape and first row, so a repeat
    # inversion of the same cell within one operation is seen as such.
    serving = _arg(args, kwargs, 0, "serving")
    root = tracer.stack[0] if tracer.stack else -1
    tracer.gram_operands.add((root, serving.shape, serving[0].tobytes()))


def _count_normals(link):
    def hook(tracer, span, args, kwargs, result):
        cells, _, antennas, users = _arg(args, kwargs, 0, "channels").matrices.shape
        n = _arg(args, kwargs, 4, "n_symbols")
        noise = users if link == "DL" else antennas
        tracer.counts["mcsim.normal_draws"] += cells * (users + noise) * n
    return hook


def _count_resamples(tracer, span, args, kwargs, result):
    summary = result[1]
    tracer.counts["scenario.drops"] += summary["drops"]
    tracer.counts["scenario.resampled"] += summary["resampled"]


def _count_csv_bytes(tracer, span, args, kwargs, result):
    with open(_arg(args, kwargs, 1, "path"), "rb") as fh:
        tracer.counts["scenario.csv_bytes"] += len(fh.read())


# (module, attribute path, hook run on the call's result). Span names are
# "<module>.<function>"; the hook may refine the name or add counts.
TARGETS = [
    ("config", "load_config", None),
    ("geometry", "drop_users", None),
    ("geometry", "circular_array", None),
    ("channel", "build_channel_set", _count_exponentials),
    ("linproc", "gram_inverse", _record_gram_operand),
    ("linproc", "zf_dl_sinr", None),
    ("linproc", "zf_ul_sinr", None),
    ("linproc", "evaluate_sinr", None),
    ("powerctl", "build_pc_system", _label_scheme_link),
    ("powerctl", "solve_targets", _count_feasible),
    ("powerctl", "maxmin_common_target", None),
    ("powerctl", "single_cell_zf_maxmin_dl", None),
    ("powerctl", "single_cell_zf_maxmin_ul", None),
    ("mcsim", "simulate_dl", _count_normals("DL")),
    ("mcsim", "simulate_ul", _count_normals("UL")),
    ("scenario", "run_scenario", _count_resamples),
    ("scenario", "verify", None),
    ("scenario", "CdfTable.write_csv", _count_csv_bytes),
]


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self, targets=TARGETS, package="losmimo"):
        self.targets = targets
        self.package = package
        self.spans = []  # [name, parent index or -1, start, end]
        self.stack = []
        self.calls = Counter()
        self.counts = Counter()
        self.gram_operands = set()
        self.missing = []
        self.hook_errors = Counter()  # "name: error" -> count

    @contextmanager
    def span(self, name):
        """A span around code in the benchmark itself, such as one operation."""
        record = [name, self.stack[-1] if self.stack else -1, time.perf_counter(), 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, name, func, hook):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = func(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            self.calls[name] += 1
            if hook is not None:
                try:
                    hook(self, record, args, kwargs, result)
                except Exception as exc:  # a changed signature must not stop the run
                    self.hook_errors[f"{name}: {type(exc).__name__}: {exc}"] += 1
            return result

        traced.__wrapped__ = func
        return traced

    @contextmanager
    def installed(self):
        """Rebind every target while the block runs; restore them after."""
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == self.package or key.startswith(self.package + "."))
        ]
        undo = []
        try:
            for module_name, path, hook in self.targets:
                home = sys.modules.get(f"{self.package}.{module_name}")
                owner_path, _, attr = path.rpartition(".")
                owner = home
                for part in owner_path.split(".") if owner_path else []:
                    owner = getattr(owner, part, None)
                func = getattr(owner, attr, None) if owner is not None else None
                if func is None:
                    self.missing.append(f"{module_name}.{path}")
                    continue
                wrapper = self._wrap(f"{module_name}.{path}", func, hook)
                if owner_path:
                    undo.append((owner, attr, func))
                    setattr(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is func:
                            undo.append((mod, key, func))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, attr, func in reversed(undo):
                setattr(owner, attr, func)

    def self_seconds(self) -> Counter:
        """Span time minus the time of its direct children, summed by name."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i, (name, _, start, end) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def write_spans(self, path) -> None:
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "parent": parent, "name": name,
                    "start_s": start - origin, "end_s": end - origin,
                }) + "\n")


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-layer numbers of one traced pass of `ops` operations.

    Self times and counts are per operation (a drop, or a verify call),
    except `config.load_config.self_ms`, which is per call. A layer the
    workload does not reach reports 0.
    """
    self_s = tracer.self_seconds()
    calls = tracer.calls
    counts = tracer.counts

    def per_op_ms(*names):
        return 1e3 * sum(self_s[n] for n in names) / ops

    def ratio(num, den):
        return num / den if den else 0.0

    mcsim = ("mcsim.simulate_dl", "mcsim.simulate_ul")
    metrics = {
        "geometry.drop_users.self_ms": per_op_ms("geometry.drop_users"),
        "geometry.circular_array.self_ms": per_op_ms("geometry.circular_array"),
        "channel.build_channel_set.self_ms": per_op_ms("channel.build_channel_set"),
        "channel.exp_per_s": ratio(counts["channel.exponentials"],
                                   self_s["channel.build_channel_set"]),
        "powerctl.maxmin_common_target.self_ms": per_op_ms("powerctl.maxmin_common_target"),
        "powerctl.solve_targets.calls": ratio(calls["powerctl.solve_targets"],
                                              calls["powerctl.maxmin_common_target"]),
        "powerctl.solve_targets.self_ms": per_op_ms("powerctl.solve_targets"),
        "powerctl.maxmin.feasible_ratio": ratio(counts["powerctl.solve_targets.feasible"],
                                                calls["powerctl.solve_targets"]),
        "powerctl.single_cell_zf.self_ms": per_op_ms("powerctl.single_cell_zf_maxmin_dl",
                                                     "powerctl.single_cell_zf_maxmin_ul"),
        "linproc.gram_inverse.calls": calls["linproc.gram_inverse"] / ops,
        "linproc.gram_inverse.useful_ratio": ratio(len(tracer.gram_operands),
                                                   calls["linproc.gram_inverse"]),
        "linproc.gram_inverse.self_ms": per_op_ms("linproc.gram_inverse"),
        "linproc.zf_sinr.self_ms": per_op_ms("linproc.zf_dl_sinr", "linproc.zf_ul_sinr"),
        "linproc.evaluate_sinr.self_ms": per_op_ms("linproc.evaluate_sinr"),
        "mcsim.simulate.calls": sum(calls[n] for n in mcsim) / ops,
        "mcsim.simulate_dl.self_s": self_s["mcsim.simulate_dl"] / ops,
        "mcsim.simulate_ul.self_s": self_s["mcsim.simulate_ul"] / ops,
        "mcsim.normal_draws": counts["mcsim.normal_draws"] / ops,
        "mcsim.normals_per_s": ratio(counts["mcsim.normal_draws"],
                                     sum(self_s[n] for n in mcsim)),
        "scenario.run_scenario.self_ms": per_op_ms("scenario.run_scenario"),
        "scenario.verify.self_ms": per_op_ms("scenario.verify"),
        "scenario.csv_write.self_ms": per_op_ms("scenario.CdfTable.write_csv"),
        "scenario.csv_bytes": counts["scenario.csv_bytes"] / ops,
        "scenario.resample_ratio": ratio(counts["scenario.resampled"],
                                         counts["scenario.resampled"] + counts["scenario.drops"]),
        "config.load_config.self_ms": 1e3 * ratio(self_s["config.load_config"],
                                                  calls["config.load_config"]),
        "trace.missing_targets": len(tracer.missing),
        "trace.hook_errors": sum(tracer.hook_errors.values()),
    }
    for label in ("MR_DL", "MR_UL", "ZF_DL", "ZF_UL"):
        metrics[f"powerctl.build_pc_system.self_ms.{label}"] = per_op_ms(
            f"powerctl.build_pc_system.{label}")
    return metrics
