"""Span tracing of sextic_strata from outside the package.

The tracer replaces the traced functions with wrappers in every module
namespace of the package that binds them (a function imported with
`from .presentation import fitting_determinant` lives on in the importing
module's namespace too), and wraps `ScalarMatrix.rref`,
`KroneckerModule.minimal_span` and `Form.__mul__` on their classes.
`install()` and `uninstall()` swap the wrappers in and out, so rounds run
with tracing off execute the package's own, unwrapped functions.

A span is `[name, start_ns, end_ns, parent, round]`; spans of one round
nest strictly (one caller, no threads), so a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) of each function traced as a span; the span name is
# "<module>.<attribute>".
SPAN_FUNCTIONS = (
    ("polymatrix", "det_poly"),
    ("presentation", "loads"),
    ("presentation", "validate"),
    ("presentation", "profile"),
    ("presentation", "h0_omega"),
    ("presentation", "section_matrix"),
    ("presentation", "dual_section_matrix"),
    ("presentation", "fitting_determinant"),
    ("forms", "mult_map"),
    ("strata", "classification_report"),
    ("strata", "classify"),
    ("strata", "validate_shape"),
    ("strata", "x0_condition"),
    ("strata", "x1_patterns"),
    ("kronecker", "is_semistable"),
    ("kronecker", "verify_witness"),
    ("orbit_oracle", "orbit_patterns"),
    ("sampler", "sample"),
    ("sampler", "random_form"),
)

# (module, class, method, span name); a span name of None only counts calls.
SPAN_METHODS = (
    ("linalg", "ScalarMatrix", "rref", "linalg.rref"),
    ("kronecker", "KroneckerModule", "minimal_span", "kronecker.minimal_span"),
    ("forms", "Form", "__mul__", None),
)

PACKAGE = "sextic_strata"
MUL_COUNT = "forms.Form.mul.calls"
ROUND_SPAN = "round"
# counters the hooks below add to a round, read off arguments and results
HOOK_COUNTS = ("linalg.rref.cells", "kronecker.subspaces_checked",
               "kronecker.verdict_unknown", "sampler.rejects", "sampler.accepted")


def metric_names() -> set:
    """Every per-round count or self time a traced round can report."""
    spans = [f"{mod}.{attr}" for mod, attr in SPAN_FUNCTIONS]
    spans += [span for *_, span in SPAN_METHODS if span is not None]
    stats = {f"{span}.{stat}" for span in spans for stat in ("calls", "self_ms")}
    return stats | {MUL_COUNT, *HOOK_COUNTS}


class Tracer:
    """Spans and counters of the rounds run while it is installed."""

    def __init__(self):
        self.spans = []           # spans of the current round
        self.stack = []           # indices of open spans in self.spans
        self.counts = Counter()   # counters of the current round
        self.round_id = -1
        self._patches = []        # (owner, attribute, original, wrapper)
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        for modname, attr in SPAN_FUNCTIONS:
            original = getattr(modules[f"{PACKAGE}.{modname}"], attr)
            wrapper = self._span_wrapper(f"{modname}.{attr}", original)
            for mod in modules.values():
                for key, value in vars(mod).items():
                    if value is original:
                        self._patches.append((mod, key, original, wrapper))
        for modname, clsname, method, span in SPAN_METHODS:
            cls = getattr(modules[f"{PACKAGE}.{modname}"], clsname)
            original = cls.__dict__[method]
            if span is None:
                wrapper = self._count_wrapper(MUL_COUNT, original)
            else:
                wrapper = self._span_wrapper(span, original)
            self._patches.append((cls, method, original, wrapper))

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter_ns
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1], self.round_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def _count_wrapper(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- lifecycle --------------------------------------------------------

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    def begin_round(self, round_id: int) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.round_id = round_id
        self.stack.append(0)
        self.spans.append([ROUND_SPAN, time.perf_counter_ns(), 0, -1, round_id])

    def end_round(self):
        """Close the round span; return (spans, counts, self_ns by name)."""
        self.spans[0][2] = time.perf_counter_ns()
        spans = [list(s) for s in self.spans]
        return spans, Counter(self.counts), self_times(spans)


def self_times(spans) -> dict:
    """Total self time in ns per span name: duration minus child coverage."""
    child = [0] * len(spans)
    for name, start, end, parent, _round in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(int)
    for i, (name, start, end, _parent, _round) in enumerate(spans):
        out[name] += end - start - child[i]
    return dict(out)


# -- counters read off results ---------------------------------------------


def _rref_hook(counts, args, _result):
    m = args[0]
    counts["linalg.rref.cells"] += m.nrows * m.ncols


def _semistable_hook(counts, _args, result):
    counts["kronecker.subspaces_checked"] += result.checked
    if result.verdict == "unknown":
        counts["kronecker.verdict_unknown"] += 1


def _sample_hook(counts, _args, result):
    counts["sampler.accepted"] += 1
    counts["sampler.rejects"] += result.metadata["rejects"]


_HOOKS = {
    "linalg.rref": _rref_hook,
    "kronecker.is_semistable": _semistable_hook,
    "sampler.sample": _sample_hook,
}
