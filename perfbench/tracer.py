"""Spans around the public functions of credal's modules, for the traced run.

install() replaces every public function of each credal module with a
wrapper that records a span: name, start, end, parent span, unit id. A
module that imported the function under its own name (`from .lp import
solve` in criteria and prevision, the names re-exported by the package)
gets the wrapper too, so every call path is seen. uninstall() puts every
original back. Spans stay in memory until write() at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterable, Iterator, Optional

MODULES = ("problem_io", "model", "prevision", "lp", "criteria", "report", "cli")
# Not wrapped: helpers called once per number, whose calls cost less than a
# wrapper would, and count_solves, a context manager the runner uses itself.
UNTRACED = frozenset({
    "as_scalar", "gamble_combine", "pointwise_dominates", "expectation",
    "probability_vector", "exact_decimal", "format_scalar", "scalar_to_json",
    "count_solves",
})


class Span:
    __slots__ = ("name", "start", "end", "parent", "unit", "solves", "result")

    def __init__(self, name: str, parent: Optional["Span"], unit: object) -> None:
        self.name = name
        self.parent = parent
        self.unit = unit
        self.start = self.end = 0.0
        self.solves = 0  # lp.solve calls made inside this span
        self.result: Optional[tuple[int, int]] = None  # (optimal, pruned) sizes

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.unit: object = None  # id of the unit being traced; None pauses
        self._open: list[Span] = []
        self._solves = 0
        self._patched: list[tuple[object, str, Callable]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        is_solve = name == "lp.solve"
        # run_pipeline spans are named by the criterion they run
        signature = inspect.signature(fn) if name == "criteria.run_pipeline" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.unit is None:
                return fn(*args, **kwargs)
            label = name
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                pre = "_pre" if bound.arguments.get("prefilter") else ""
                label = f"criteria.{bound.arguments['criterion']}{pre}"
            span = Span(label, self._open[-1] if self._open else None, self.unit)
            self.spans.append(span)
            self._open.append(span)
            if is_solve:
                self._solves += 1
            before = self._solves
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._open.pop()
                span.solves = self._solves - before + is_solve
            if hasattr(result, "optimal"):
                span.result = (len(result.optimal), len(getattr(result, "pruned", ())))
            return result

        return wrapper

    @contextmanager
    def tracing(self, unit: object) -> Iterator[Span]:
        """Record the calls made inside the block as one unit's spans."""
        span = Span("unit", None, unit)
        self.spans.append(span)
        self._open.append(span)
        self.unit = unit
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            self.unit = None
            self._open.pop()

    def install(self) -> None:
        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"credal.{short}"]
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                    and attr not in UNTRACED
                ):
                    wrappers[id(value)] = (value, self._wrap(f"{short}.{attr}", value))
        for name, module in list(sys.modules.items()):
            if name != "credal" and not name.startswith("credal."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path, header: dict) -> None:
        """Spans as gzipped JSON lines: a header, then one span per line."""
        index = {id(span): k for k, span in enumerate(self.spans)}
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps(header) + "\n")
            for span in self.spans:
                parent = index[id(span.parent)] if span.parent is not None else None
                out.write(
                    json.dumps([span.name, span.start, span.end, parent, span.unit])
                    + "\n"
                )


def _outermost(spans: Iterable[Span], names: Callable[[str], bool]) -> list[Span]:
    """Matching spans with no matching ancestor, so no time counts twice."""
    out = []
    for span in spans:
        if not names(span.name):
            continue
        parent = span.parent
        while parent is not None and not names(parent.name):
            parent = parent.parent
        if parent is None:
            out.append(span)
    return out


CRITERIA = (
    "maximin", "maximax", "maximal", "interval", "eadmissible",
    "maximal_pre", "eadmissible_pre", "mixture",
)


def layer_metrics(spans: list[Span], main: set) -> dict[str, tuple]:
    """Per-layer numbers as (value, unit), averaged over the units that call the layer.

    A layer is measured on the workload's own units (those in main); a
    layer none of them calls is measured on the coverage units instead.
    A unit span's solves are those credal.count_solves() counted for it.
    """
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def pick(*names: str) -> list[Span]:
        found = [s for n in names for s in by_name[n]]
        return [s for s in found if s.unit in main] or found

    def layer(prefix: str) -> list[Span]:
        found = pick(*[n for n in by_name if n.startswith(prefix)])
        return _outermost(found, lambda n: n.startswith(prefix))

    def per_unit(found: list[Span], value: Callable[[Span], float]) -> float:
        units = {s.unit for s in found}
        return sum(value(s) for s in found) / len(units) if units else 0.0

    def ms(found: list[Span]) -> tuple:
        return per_unit(found, lambda s: s.seconds * 1e3), "ms"

    def mean_us(found: list[Span]) -> tuple:
        return (sum(s.seconds for s in found) / len(found) * 1e6 if found else 0.0), "us"

    def calls(found: list[Span]) -> tuple:
        return per_unit(found, lambda s: 1), "count"

    admissible = {s.unit: s.result[0] for s in by_name["criteria.admissible_result"]}

    def ratio(tag: str, top, bottom, unit: str) -> tuple:
        """Sum of top over sum of bottom, both of (span, admissible count)."""
        pairs = [(s, admissible[s.unit]) for s in pick(f"criteria.{tag}") if s.unit in admissible]
        den = sum(bottom(*p) for p in pairs)
        return (sum(top(*p) for p in pairs) / den if den else 0.0), unit

    extensions = pick("prevision.natural_extension_lower", "prevision.natural_extension_upper")
    solving = [s for s in by_name["unit"] if s.solves]
    unit_time = sum(s.seconds for s in by_name["unit"] if s.unit in main)
    solve_time = sum(s.seconds for s in by_name["lp.solve"] if s.unit in main)
    metrics = {
        "problem_io.parse_ms": ms(layer("problem_io.")),
        "model.admissible_ms": ms(pick("model.admissible_set")),
        "prevision.sure_loss_calls": calls(pick("prevision.sure_loss_certificate")),
        "prevision.extension_calls": calls(extensions),
        "prevision.extension_us": mean_us(extensions),
        "lp.solves": (per_unit([s for s in solving if s.unit in main] or solving,
                               lambda s: s.solves), "count"),
        "lp.solve_us": mean_us(pick("lp.solve")),
        "lp.solve_share": (solve_time / unit_time if unit_time else 0.0, "frac"),
        "lp.vertex_ms": ms(pick("lp.enumerate_vertices")),
    }
    for tag in CRITERIA:
        found = pick("criteria.mixture_dominance" if tag == "mixture" else f"criteria.{tag}")
        metrics[f"criteria.{tag}.ms"] = ms(found)
        metrics[f"criteria.{tag}.solves"] = per_unit(found, lambda s: s.solves), "count"
    for tag in ("maximal", "eadmissible"):
        metrics[f"criteria.{tag}.solves_per_admissible"] = ratio(
            tag, lambda s, a: s.solves, lambda s, a: a, "count"
        )
    metrics["criteria.maximal.reject_per_solve"] = ratio(
        "maximal", lambda s, a: a - s.result[0], lambda s, a: s.solves, "frac"
    )
    metrics["criteria.prefilter.pruned_frac"] = ratio(
        "maximal_pre", lambda s, a: s.result[1], lambda s, a: a, "frac"
    )
    metrics["report.diagnostics_ms"] = ms(pick("report.build_diagnostics"))
    metrics["report.render_ms"] = ms(layer("report.render_"))
    metrics["cli.run_ms"] = ms(pick("cli.run"))
    return metrics
