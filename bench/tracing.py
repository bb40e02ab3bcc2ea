"""Spans around qstc's public functions, recorded from outside the library.

The library modules call each other through module attributes
(``dynamics.peak_search``, ``spectral.decompose``, a bare ``decompose(...)``
inside ``spectral`` resolves through the same module dict), so replacing an
attribute with a wrapper also catches the calls between and within modules.

Spans are kept in memory as ``[function_id, start_ns, end_ns, parent_index]``
and written out once, when the benchmark ends.  A function that the library no
longer defines is recorded as absent; its metrics read zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

#: Public functions wrapped in a traced run, one layer per module.
FUNCTIONS = (
    "chains.build_hamiltonian",
    "spectral.decompose",
    "spectral.verify_lemmas",
    "spectral.glue",
    "exact.char_poly_report",
    "exact.reduced_charpoly_homogeneous",
    "exact.factor_degree_profile",
    "exact.table_degree",
    "dynamics.transfer_probability",
    "dynamics.chain_series",
    "dynamics.closed_form_probability",
    "dynamics.peak_search",
    "design.pgt_search",
    "design.design_pst",
    "optimize.sweep",
    "optimize.optimize",
    "optimize.objective",
    "cli.main",
)


def _count_samples(counts, result):
    counts["dynamics.transfer_probability.samples"] += len(getattr(result, "times", ()))


def _count_scan_budget(counts, result):
    counts["design.pgt_search.scan_budget"] += getattr(result, "scan_budget", 0)


def _count_generations(counts, result):
    trajectory = getattr(result, "trajectory", ())
    counts["optimize.optimize.generations"] += max(len(trajectory) - 1, 0)
    counts["optimize.optimize.improving_generations"] += sum(
        1 for before, after in zip(trajectory, trajectory[1:]) if after > before
    )


#: Counts read off a function's return value.
RESULT_COUNTERS = {
    "dynamics.transfer_probability": _count_samples,
    "design.pgt_search": _count_scan_budget,
    "optimize.optimize": _count_generations,
}

COUNT_NAMES = (
    "dynamics.transfer_probability.samples",
    "design.pgt_search.scan_budget",
    "optimize.optimize.generations",
    "optimize.optimize.improving_generations",
)


class Tracer:
    """Wraps :data:`FUNCTIONS` inside a ``with`` block and records one span per call."""

    def __init__(self, functions=FUNCTIONS):
        self.functions = tuple(functions)
        self.spans = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.absent = []
        self._stack = []
        self._installed = []

    def __enter__(self):
        self.absent = []
        for fid, name in enumerate(self.functions):
            module_name, attr = name.split(".")
            try:
                module = importlib.import_module(f"qstc.{module_name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"qstc.{module_name}":
                    raise
                self.absent.append(name)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            setattr(module, attr, self._wrap(fid, name, original))
            self._installed.append((module, attr, original))
        return self

    def __exit__(self, *exc_info):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def _wrap(self, fid, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = RESULT_COUNTERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [fid, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, result)
            return result

        return wrapper

    def summary(self, passes=1):
        """Per-function calls, self and total milliseconds, averaged per pass."""
        n = len(self.functions)
        calls = [0] * n
        total = [0] * n
        child = [0] * len(self.spans)
        for fid, start, end, parent in self.spans:
            calls[fid] += 1
            total[fid] += end - start
            if parent >= 0:
                child[parent] += end - start
        own = [0] * n
        for (fid, start, end, _), inner in zip(self.spans, child):
            own[fid] += end - start - inner
        out = {}
        for fid, name in enumerate(self.functions):
            out[f"{name}.calls"] = calls[fid] / passes
            out[f"{name}.self_ms"] = own[fid] / 1e6 / passes
            out[f"{name}.total_ms"] = total[fid] / 1e6 / passes
        counts = dict(self.counts)
        improving = counts.pop("optimize.optimize.improving_generations")
        for key, value in counts.items():
            out[key] = value / passes
        generations = counts["optimize.optimize.generations"]
        out["optimize.optimize.improving_gen_ratio"] = improving / generations if generations else 0.0
        return out

    def write(self, path):
        """Write every recorded span (times in ns from the first span)."""
        origin = self.spans[0][1] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "functions": list(self.functions),
                    "absent": self.absent,
                    "span_fields": ["function", "start_ns", "end_ns", "parent"],
                    "spans": [[f, s - origin, e - origin, p] for f, s, e, p in self.spans],
                },
                fh,
                separators=(",", ":"),
            )
