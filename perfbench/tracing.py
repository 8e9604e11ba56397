"""Spans around the public entry points of symcomp's modules, and the
per-layer metrics computed from them.

`Recorder.install` replaces each traced function on every `symcomp.*`
module attribute that holds it, so callers that resolve the name at call
time (`apply_fixpoint` calling `apply_once`, a session calling
`canonicalize`, the benchmark calling `rules.apply_fixpoint`) go through a
wrapper.  A wrapper records one span, `[name, start_ns, end_ns, parent,
op, count]`, in memory; `parent` is the index of the enclosing span and
`count` a work count taken from the arguments or result after the span
closes.  Self time is a span's duration minus the durations of its child
spans.  `canonicalize` recurses through its own module attribute, so its
wrapper passes nested calls straight through and records only the
outermost call.
"""
from __future__ import annotations

import gzip
import json
import statistics
import sys
import time

from symcomp import core


def terms(e) -> int:
    """Monomials of a canonical value (vector terms count their coefficient's)."""
    if core.is_scalar(e):
        return len(e.terms)
    return sum(len(c.terms) for c in e.terms.values())


# (module, function, count(args, result) or None)
TRACED = (
    ("parser", "tokenize", lambda args, r: len(r)),
    ("parser", "parse_expr", None),
    ("parser", "parse_script", None),
    ("core", "canonicalize", lambda args, r: terms(r)),
    ("core", "equal", None),
    ("rules", "apply_once", lambda args, r: terms(args[0])),
    ("rules", "apply_fixpoint", None),
    ("rules", "instantiate_sides", None),
    ("polyops", "subst", None),
    ("polyops", "coeff", None),
    ("polyops", "coeff_matrix", None),
    ("polyops", "factored_equal", None),
    ("printer", "print_expr", lambda args, r: len(r)),
    ("oracle", "check_identity", None),
    ("oracle", "eval_expr", None),
    ("oracle", "random_assignment", None),
    ("sessions", "run_session", None),
)
REENTRANT = {"core.canonicalize"}


class Recorder:
    """In-memory spans; wrappers record only while `active` is true."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None
        self.active = False

    def _wrap(self, name, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        reentrant = name in REENTRANT

        def traced(*args, **kwargs):
            if not self.active or (reentrant and stack and spans[stack[-1]][0] == name):
                return fn(*args, **kwargs)
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[5] = count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "symcomp" or n.startswith("symcomp."))]
        for module_name, func_name, count in TRACED:
            original = getattr(sys.modules[f"symcomp.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original, count)
            for module in modules:
                if vars(module).get(func_name) is original:
                    setattr(module, func_name, wrapper)

    def dump(self, path, header: dict) -> None:
        """Write the spans as gzipped JSON lines after one header line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({**header, "fields": ["name", "start_ns", "end_ns",
                                                      "parent", "op", "count"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# --- aggregation ----------------------------------------------------------


class Tally:
    """Per-group sums over spans: calls, inclusive and self seconds, counts."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.incl: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.count: dict[str, int] = {}
        self.fires = 0          # canonicalize calls made by apply_once: rule firings
        self.fixpoint_passes = 0  # apply_once calls made by apply_fixpoint

    def add(self, name, dur_s, self_s, count, parent_name):
        self.calls[name] = self.calls.get(name, 0) + 1
        self.incl[name] = self.incl.get(name, 0.0) + dur_s
        self.self_s[name] = self.self_s.get(name, 0.0) + self_s
        self.count[name] = self.count.get(name, 0) + count
        if name == "core.canonicalize" and parent_name == "rules.apply_once":
            self.fires += 1
        if name == "rules.apply_once" and parent_name == "rules.apply_fixpoint":
            self.fixpoint_passes += 1


def tally_spans(spans, group_of) -> dict:
    """Sum spans into one Tally per group; `group_of(op)` names the group of an
    op, or None to leave its spans out."""
    child = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    groups: dict = {}
    for i, (name, start, end, parent, op, count) in enumerate(spans):
        group = group_of(op)
        if group is None:
            continue
        tally = groups.get(group)
        if tally is None:
            tally = groups[group] = Tally()
        dur = end - start
        tally.add(name, dur / 1e9, (dur - child[i]) / 1e9, count,
                  spans[parent][0] if parent >= 0 else None)
    return groups


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_counts(t: Tally) -> dict:
    """The deterministic per-layer counts of one group."""
    c, n = t.calls.get, t.count.get
    return {
        "rules.apply_once.calls": c("rules.apply_once", 0),
        "rules.apply_once.terms_in": n("rules.apply_once", 0),
        "rules.passes_per_fixpoint": _ratio(t.fixpoint_passes, c("rules.apply_fixpoint", 0)),
        "rules.fires": t.fires,
        "rules.fire_ratio": _ratio(t.fires, n("rules.apply_once", 0)),
        "core.canonicalize.calls": c("core.canonicalize", 0),
        "core.canonicalize.terms_out": n("core.canonicalize", 0),
        "core.equal.calls": c("core.equal", 0),
        "printer.print_expr.calls": c("printer.print_expr", 0),
        "oracle.check_identity.calls": c("oracle.check_identity", 0),
        "oracle.trials": c("oracle.eval_expr", 0),
        "parser.parse_expr.calls": c("parser.parse_expr", 0),
        "parser.tokens": n("parser.tokenize", 0),
    }


def layer_times(t: Tally) -> dict:
    """The per-layer times and rates of one group, in seconds unless named."""
    i, s = t.incl.get, t.self_s.get
    oracle_s = s("oracle.check_identity", 0) + s("oracle.eval_expr", 0) \
        + s("oracle.random_assignment", 0)
    trials = t.calls.get("oracle.eval_expr", 0)
    parse_s = i("parser.parse_expr", 0) + i("parser.parse_script", 0)
    return {
        "rules.apply_once.self_s": s("rules.apply_once", 0),
        "rules.terms_per_s": _ratio(t.count.get("rules.apply_once", 0), i("rules.apply_once", 0)),
        "rules.apply_fixpoint.s": i("rules.apply_fixpoint", 0),
        "rules.instantiate_sides.s": i("rules.instantiate_sides", 0),
        "core.canonicalize.self_s": s("core.canonicalize", 0),
        "core.equal.s": i("core.equal", 0),
        "polyops.subst.s": i("polyops.subst", 0),
        "polyops.coeff.s": i("polyops.coeff", 0),
        "polyops.coeff_matrix.s": i("polyops.coeff_matrix", 0),
        "polyops.factored_equal.s": i("polyops.factored_equal", 0),
        "printer.print_expr.s": i("printer.print_expr", 0),
        "printer.chars_per_s": _ratio(t.count.get("printer.print_expr", 0),
                                      i("printer.print_expr", 0)),
        "oracle.check_identity.self_s": s("oracle.check_identity", 0),
        "oracle.trial_us": _ratio(oracle_s, trials) * 1e6,
        "oracle.eval_expr.s": i("oracle.eval_expr", 0),
        "oracle.random_assignment.s": i("oracle.random_assignment", 0),
        "oracle.assign_share": _ratio(i("oracle.random_assignment", 0), oracle_s),
        "parser.parse_expr.s": i("parser.parse_expr", 0),
        "parser.tokens_per_s": _ratio(t.count.get("parser.tokenize", 0), parse_s),
        "sessions.run_session.self_s": s("sessions.run_session", 0),
    }


def summarize(groups: list[Tally]) -> tuple[dict, dict, bool]:
    """Counts of the first group, median times over groups, and whether every
    group repeated the first group's counts exactly."""
    counts = [layer_counts(t) for t in groups]
    times = [layer_times(t) for t in groups]
    repeat = all(c == counts[0] for c in counts)
    medians = {k: statistics.median(t[k] for t in times) for k in times[0]}
    return counts[0], medians, repeat
