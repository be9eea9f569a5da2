"""In-memory spans around calls into the program's layers.

The tracer replaces module attributes of ``sfebounds`` with wrappers, so
calls made through the module namespace (by the CLI, by the library's own
modules and by the benchmark) each record one span: name, start, end and
the index of the enclosing span.  Per-element helpers that run once per
table cell or curve sample (``family_value``, ``cb_from_ca``, ``hs_inner``
and the like) are left unwrapped: a span around each would cost more than
the work it times.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

LAYERS = ("cli", "tasks", "bounds", "measurements", "dierolling")

TRACED = {
    "cli": ("main",),
    "tasks": ("make_family", "validate_task", "b_rand_bruteforce", "b_rand_closed_form", "b_rand", "load_task"),
    "bounds": ("bound_report", "solve_fixed_point", "ca_crossing", "emit_curve", "write_curve_csv"),
    "measurements": (
        "run_campaign",
        "gentle_instance",
        "sequential_instance",
        "learning_instance",
        "check_gentle",
        "check_sequential",
        "averaged_strategy_success",
        "combined_povm",
        "matrix_sqrt",
        "random_density",
        "random_povm",
        "random_encoding",
    ),
    "dierolling": ("run_honest",),
}

# per-layer time metrics: total span time of one traced function
TIMED = (
    "cli.main",
    "tasks.make_family",
    "tasks.validate_task",
    "tasks.b_rand_bruteforce",
    "tasks.load_task",
    "bounds.solve_fixed_point",
    "bounds.ca_crossing",
    "bounds.emit_curve",
    "measurements.gentle_instance",
    "measurements.sequential_instance",
    "measurements.learning_instance",
    "measurements.matrix_sqrt",
    "measurements.combined_povm",
    "dierolling.run_honest",
)


def _cells(counts, args, kwargs, result):
    if result.table is not None:
        counts["tasks.cells"] += result.x_size * result.y_size


def _iterations(counts, args, kwargs, result):
    counts["bounds.solve_iterations"] += result.iterations


def _rows(counts, args, kwargs, result):
    counts["bounds.curve_rows"] += len(result)


def _instance(counts, args, kwargs, result):
    counts["measurements.instances"] += 1


def _sqrt_call(counts, args, kwargs, result):
    counts["measurements.matrix_sqrt_calls"] += 1


def _trials(counts, args, kwargs, result):
    counts["dierolling.trials"] += result.trials


COUNTERS = {
    "tasks.make_family": _cells,
    "tasks.load_task": _cells,
    "bounds.solve_fixed_point": _iterations,
    "bounds.emit_curve": _rows,
    "measurements.gentle_instance": _instance,
    "measurements.sequential_instance": _instance,
    "measurements.learning_instance": _instance,
    "measurements.matrix_sqrt": _sqrt_call,
    "dierolling.run_honest": _trials,
}
COUNT_NAMES = (
    "tasks.cells",
    "bounds.solve_iterations",
    "bounds.curve_rows",
    "measurements.instances",
    "measurements.matrix_sqrt_calls",
    "dierolling.trials",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self._stack = []

    def wrap(self, name, fn):
        count = COUNTERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every TRACED function wherever sfebounds modules hold it."""
        import sfebounds
        from sfebounds import bounds, cli, dierolling, measurements, tasks

        modules = {"cli": cli, "tasks": tasks, "bounds": bounds, "measurements": measurements, "dierolling": dierolling}
        holders = [sfebounds, *modules.values()]
        for layer, names in TRACED.items():
            for name in names:
                original = getattr(modules[layer], name)
                wrapper = self.wrap(f"{layer}.{name}", original)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)

    def metrics(self) -> dict:
        """Busy and self time per layer, time per TIMED function, counts.

        A span's self time is its duration minus its direct children's.
        A layer is busy during its spans whose parent is in another layer
        (or absent), so nested spans of one layer are not counted twice.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy = dict.fromkeys(LAYERS, 0.0)
        own = dict.fromkeys(LAYERS, 0.0)
        timed = dict.fromkeys(TIMED, 0.0)
        for i, (name, start, end, parent) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            duration = end - start
            own[layer] += duration - child[i]
            if parent < 0 or self.spans[parent][0].split(".", 1)[0] != layer:
                busy[layer] += duration
            if name in timed and (parent < 0 or self.spans[parent][0] != name):
                timed[name] += duration
        out = {}
        for layer in LAYERS:
            out[f"{layer}.busy_s"] = busy[layer]
            out[f"{layer}.self_s"] = own[layer]
        for name in TIMED:
            out[f"{name}_s"] = timed[name]
        for name in COUNT_NAMES:
            out[name] = self.counts[name]
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, handle)
            handle.write("\n")
