"""Span recorder that wraps endoclass functions from outside the package.

`install()` replaces each traced function in every endoclass module
namespace that binds it (for example `iso_classes` is bound in both
`endoclass.classify` and `endoclass.cli`), so calls through any import
path are recorded.  Spans stay in memory as lists

    (name, start, end, parent, op, busy, result)

where `parent` is the index of the enclosing span (or -1), `op` is the
operation id set by the caller, `busy` is the time spent inside the
function and `result` is a small summary of the return value (a count,
or a flag).  For functions that return a lazy generator (`gl2_lifted`
above the cache limit) `busy` also accumulates the time spent producing
its items, because that is where the work happens.

`aggregate()` derives self times from the spans and turns them into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# span name -> (module, attribute path); the name is module.function
TRACED = {
    "fields.field_from_spec": ("endoclass.fields", "field_from_spec"),
    "fields.tables": ("endoclass.fields", "FieldTables.__init__"),
    "algebra.is_endo_commutative_straight": ("endoclass.algebra", "is_endo_commutative_straight"),
    "classify.enumerate_type_ii1": ("endoclass.classify", "enumerate_type_ii1"),
    "classify.enumerate_type": ("endoclass.classify", "enumerate_type"),
    "classify.iso_classes": ("endoclass.classify", "iso_classes"),
    "classify.theorem_families": ("endoclass.classify", "theorem_families"),
    "classify.verify_classification": ("endoclass.classify", "verify_classification"),
    "classify.report_json": ("endoclass.classify", "ClassificationReport.to_json_dict"),
    "iso.gl2_lifted": ("endoclass.iso", "gl2_lifted"),
    "iso.are_isomorphic": ("endoclass.iso", "are_isomorphic"),
    "equiv.related": ("endoclass.equiv", "related"),
    "equiv.rep_system": ("endoclass.equiv", "rep_system"),
    "equiv.bounded_refutation_search": ("endoclass.equiv", "bounded_refutation_search"),
    "cli.emit_json": ("endoclass.cli", "_emit_json"),
    "cli.main": ("endoclass.cli", "main"),
}


# every per-layer metric with its unit; run.py adds the last three
LAYER_UNITS = {
    "fields.tables.s": "s",
    "fields.tables.builds": "count",
    "fields.field_from_spec.s": "s",
    "algebra.is_endo_commutative_straight.s": "s",
    "algebra.is_endo_commutative_straight.calls": "count",
    "classify.enumerate_type_ii1.s": "s",
    "classify.enumerate_type_ii1.tuples": "count",
    "classify.enumerate_type_ii1.survivors": "count",
    "classify.enumerate_type_ii1.survivor_ratio": "ratio",
    "classify.enumerate_type.s": "s",
    "classify.iso_classes.s": "s",
    "classify.iso_classes.s_per_class": "s",
    "classify.iso_classes.classes": "count",
    "classify.iso_classes.algebras": "count",
    "classify.theorem_families.s": "s",
    "classify.verify_classification.self_s": "s",
    "classify.report_json.s": "s",
    "iso.gl2_lifted.s": "s",
    "iso.gl2_lifted.calls": "count",
    "iso.are_isomorphic.s": "s",
    "iso.are_isomorphic.positive_s": "s",
    "iso.are_isomorphic.positive_calls": "count",
    "iso.are_isomorphic.negative_s": "s",
    "iso.are_isomorphic.negative_calls": "count",
    "equiv.rep_system.s": "s",
    "equiv.rep_system.related_per_rep": "ratio",
    "equiv.related.calls": "count",
    "equiv.bounded_refutation_search.s": "s",
    "cli.emit_json.s": "s",
    "cli.main.s": "s",
    "cli.stdout_bytes": "bytes",
    "classify.iso_classes.share_of_wall": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _summary(name: str, args, result):
    """A number kept with the span, for the count metrics."""
    if name == "classify.enumerate_type_ii1":
        q = args[0].order()
        return (q * (q - 1) ** 2 * q * q, len(result))
    if name == "classify.iso_classes":
        return (len(args[0]), len(result))
    if name == "iso.are_isomorphic":
        return result is not None
    if name == "equiv.rep_system":
        return len(result.representatives)
    return None


class Recorder:
    """Holds the spans of one process until it ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, 0.0, None])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.stack.pop()
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] += span[2] - span[1]

    def wrap(self, name: str, func):
        rec = self

        def _timed_items(it, idx):
            span = rec.spans[idx]
            while True:
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    span[5] += time.perf_counter() - t0
                    return
                span[5] += time.perf_counter() - t0
                yield item

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = rec._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                rec._close(idx)
            rec.spans[idx][6] = _summary(name, args, result)
            if inspect.isgenerator(result):
                return _timed_items(result, idx)
            return result

        return wrapper


def install(recorder: Recorder) -> None:
    """Wrap every traced function in every endoclass namespace binding it."""
    import endoclass  # noqa: F401  (loads every submodule)

    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "endoclass" or n.startswith("endoclass."))]
    for name, (modname, path) in TRACED.items():
        owner = sys.modules[modname]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapped = recorder.wrap(name, original)
        setattr(owner, attr, wrapped)
        if outer:
            continue  # a method: its class is the only binding
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def self_times(spans) -> list[float]:
    """busy time of each span minus the busy time of its direct children."""
    out = [s[5] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[5]
    return out


def aggregate(spans) -> dict:
    """Per-layer sums over the spans of one pass."""
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        busy[s[0]] = busy.get(s[0], 0.0) + s[5]
        calls[s[0]] = calls.get(s[0], 0) + 1
    selfs = self_times(spans)

    def total(name):
        return busy.get(name, 0.0)

    def of(name):
        return [s for s in spans if s[0] == name]

    ii1 = [s[6] for s in of("classify.enumerate_type_ii1")]
    tuples = sum(t for t, _ in ii1)
    survivors = sum(n for _, n in ii1)
    parts = [s[6] for s in of("classify.iso_classes")]
    classes = sum(c for _, c in parts)
    iso = of("iso.are_isomorphic")
    pos = [s for s in iso if s[6]]
    neg = [s for s in iso if not s[6]]

    # related() calls made on behalf of rep_system, by ancestry
    rep_ids = {i for i, s in enumerate(spans) if s[0] == "equiv.rep_system"}
    related_under_rep = 0
    for s in of("equiv.related"):
        p = s[3]
        while p >= 0 and p not in rep_ids:
            p = spans[p][3]
        related_under_rep += p >= 0
    reps = sum(spans[i][6] for i in rep_ids)

    return {
        "fields.tables.s": total("fields.tables"),
        "fields.tables.builds": calls.get("fields.tables", 0),
        "fields.field_from_spec.s": total("fields.field_from_spec"),
        "algebra.is_endo_commutative_straight.s": total("algebra.is_endo_commutative_straight"),
        "algebra.is_endo_commutative_straight.calls": calls.get("algebra.is_endo_commutative_straight", 0),
        "classify.enumerate_type_ii1.s": total("classify.enumerate_type_ii1"),
        "classify.enumerate_type_ii1.tuples": tuples,
        "classify.enumerate_type_ii1.survivors": survivors,
        "classify.enumerate_type_ii1.survivor_ratio": survivors / tuples if tuples else 0.0,
        "classify.enumerate_type.s": total("classify.enumerate_type"),
        "classify.iso_classes.s": total("classify.iso_classes"),
        "classify.iso_classes.s_per_class": total("classify.iso_classes") / classes if classes else 0.0,
        "classify.iso_classes.classes": classes,
        "classify.iso_classes.algebras": sum(a for a, _ in parts),
        "classify.theorem_families.s": total("classify.theorem_families"),
        "classify.verify_classification.self_s": sum(
            selfs[i] for i, s in enumerate(spans) if s[0] == "classify.verify_classification"),
        "classify.report_json.s": total("classify.report_json"),
        "iso.gl2_lifted.s": total("iso.gl2_lifted"),
        "iso.gl2_lifted.calls": calls.get("iso.gl2_lifted", 0),
        "iso.are_isomorphic.s": total("iso.are_isomorphic"),
        "iso.are_isomorphic.positive_s": sum(s[5] for s in pos),
        "iso.are_isomorphic.positive_calls": len(pos),
        "iso.are_isomorphic.negative_s": sum(s[5] for s in neg),
        "iso.are_isomorphic.negative_calls": len(neg),
        "equiv.rep_system.s": total("equiv.rep_system"),
        "equiv.rep_system.related_per_rep": related_under_rep / reps if reps else 0.0,
        "equiv.related.calls": calls.get("equiv.related", 0),
        "equiv.bounded_refutation_search.s": total("equiv.bounded_refutation_search"),
        "cli.emit_json.s": total("cli.emit_json"),
        "cli.main.s": total("cli.main"),
    }
