"""Spans around the calls one persistlab module makes into another.

The tracer replaces module-level names (for example ``persistlab.mc.eval_f``)
with wrappers that record a span per call: call id, span id, parent span id,
name, start and end.  Nothing under ``src/`` is edited; ``uninstall`` puts the
original objects back.  Spans stay in memory until the run writes them out.
Wrappers are not visible inside pool workers, so traced calls run with
``workers=1``.
"""

from __future__ import annotations

import csv
import importlib
import time
from collections import defaultdict

# (module, attribute, span name).  The span name is "<callee module>.<function>".
BOUNDARIES = (
    # public calls made by the benchmark: the root span of each call
    ("persistlab.mc", "estimate_persistence", "mc.estimate_persistence"),
    ("persistlab.gp", "estimate_exponent", "gp.estimate_exponent"),
    ("persistlab.games", "prob_no_internal_equilibria", "games.prob_no_internal_equilibria"),
    # mc -> polys / roots / kernel / logscale
    ("persistlab.mc", "BinomialPolynomial", "polys.BinomialPolynomial"),
    ("persistlab.mc", "eval_f", "polys.eval_f"),
    ("persistlab.mc", "is_persistent", "roots.is_persistent"),
    ("persistlab.mc", "count_roots_in", "roots.count_roots_in"),
    ("persistlab.mc", "mn_exact", "kernel.mn_exact"),
    ("persistlab.mc", "transform_x", "kernel.transform_x"),
    ("persistlab.mc", "log_binomial_row", "logscale.log_binomial_row"),
    # polys / kernel -> logscale
    ("persistlab.polys", "log_binomial_row", "logscale.log_binomial_row"),
    ("persistlab.polys", "signed_log_sum", "logscale.signed_log_sum"),
    ("persistlab.kernel", "log_binomial_row", "logscale.log_binomial_row"),
    # games -> roots, and the Descartes-to-Sturm retry inside roots
    ("persistlab.games", "no_positive_roots", "roots.no_positive_roots"),
    ("persistlab.roots", "count_positive_roots", "roots.count_positive_roots"),
    # gp's own stages
    ("persistlab.gp", "estimate_survival", "gp.estimate_survival"),
    ("persistlab.gp", "required_truncation", "gp.required_truncation"),
    ("persistlab.gp", "fit_exponent", "gp.fit_exponent"),
)

LAYERS = ("mc", "roots", "polys", "kernel", "logscale", "gp", "games")


class Tracer:
    """Installs span-recording wrappers on the given boundaries."""

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = boundaries
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.call_id = -1  # set by the caller before each top-level call
        self._stack: list[int] = []
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((self.call_id, span_id, parent, name, start, end))

        return traced

    def install(self) -> None:
        for module_name, attr, name in self.boundaries:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path, header: str) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(f"# {header}\n")
            out = csv.writer(fh)
            out.writerow(("call", "span", "parent", "name", "start", "end"))
            out.writerows(self.spans)


def summarize(spans) -> tuple[dict[str, tuple[int, float]], dict[str, float]]:
    """Per span name (calls, inclusive seconds), and per layer self seconds.

    A span's self time is its duration minus the time its child spans cover;
    spans of one thread never overlap, so that is the sum of the children's
    durations.
    """
    child_time: dict[int, float] = defaultdict(float)
    for _, _, parent, _, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name: dict[str, list] = defaultdict(lambda: [0, 0.0])
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for _, span_id, _, name, start, end in spans:
        entry = by_name[name]
        entry[0] += 1
        entry[1] += end - start
        layer = name.split(".", 1)[0]
        layer_self[layer] += end - start - child_time[span_id]
    return {k: (v[0], v[1]) for k, v in by_name.items()}, layer_self
