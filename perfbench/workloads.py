"""The benchmark's workloads: seeded operation lists and output checks.

Each workload is a closed loop with one client: the next operation is
issued only after the previous one has finished.  An operation is a dict

    {"argv": [...], "check": {...}}

whose argv goes to the endoclass CLI unchanged; `check` holds what the
benchmark knows about the answer from how it built the input.

* verify-ladder: `verify --format json` on F8, F9, F13, F16, F17 and
  `classes` on F11, each as a fresh `python -m endoclass` process.  The
  GL2 orbit partition does almost all of the work.  The ladder spans
  characteristic 2 (S1'..S4') and odd characteristic (S1..S4), prime and
  extension fields.  The seed only shuffles the order.
* scan-wide: `enumerate --type II1` on F27 (tsv) and F32 (json) and
  `enumerate --type III` on F9, as processes: the q^5 and guarded q^6
  scans and large outputs, with no partition at all.
* queries: 116 seeded `iso` and `equiv` operations sent in one
  process through `endoclass.cli.main(argv)`.  About two thirds are
  `iso`, some positive (S against the straight form of a random change
  of basis of S, which stops at the first witness) and more negative
  (two different predicted families, which exhausts GL2).
  F11..F23 sit under the GL2 cache limit and are revisited warm; F31 is
  above it and pays for a fresh GL2 on every query.

Inputs whose behaviour is about to be changed on purpose are kept out
of every workload; `meta.json` lists them with the reason.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from endoclass import (Transform, check_iso_system, field_from_spec, theorem_families,
                       to_straight_form, transform)
from endoclass.algebra import SParams

WORKLOADS = ("verify-ladder", "scan-wide", "queries")
DEFAULT_SEED = 0  # the seed whose outputs expected.json records

# Operations that run as their own `python -m endoclass` process; the
# queries workload runs in one process through cli.main instead.
SUBPROCESS_WORKLOADS = ("verify-ladder", "scan-wide")

LADDER = {
    "verify": ("F8", "F9", "F13", "F16", "F17"),
    "classes": ("F11",),
    "scan_ii1": (("F27", "tsv"), ("F32", "json")),
    "scan_full": (("F9", "III"),),
    # (field, positive pairs, negative pairs).  A negative pair costs one
    # whole GL2 scan, so the negative counts set where the latency
    # percentiles fall: the F13 negatives sit around the median and the
    # F17 negatives around the 90th percentile, each a block of queries
    # of one cost, so that the percentiles do not jump between seeds.
    "iso": (("F11", 4, 2), ("F13", 4, 24), ("F16", 4, 12), ("F17", 4, 16),
            ("F19", 4, 1), ("F23", 4, 1), ("F31", 3, 1)),
    "test": (("F13", "sim1"), ("F49", "sim1"), ("F17", "sim5"), ("F81", "sim5"),
             ("F16", "sim2"), ("F128", "sim3"), ("F32", "sim4"), ("F256", "sim4")),
    "rationals": 4,
    "f2x_sim3": 4,
    "bounded": 8,
    "reps": (("F64", "sim1"), ("F64", "sim2"), ("F64", "sim4"), ("F128", "sim1"),
             ("F128", "sim3"), ("F256", "sim2"), ("F81", "sim1"), ("F125", "sim1")),
}

DEGREE_BOUND = 7
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def setup_fields(workload: str, ladder=LADDER) -> list[str]:
    """Fields on which the workload runs table-driven operations."""
    if workload == "verify-ladder":
        return list(ladder["verify"]) + list(ladder["classes"])
    if workload == "scan-wide":
        return [f for f, _ in ladder["scan_ii1"]] + [f for f, _ in ladder["scan_full"]]
    return [f for f, _, _ in ladder["iso"]]


def build(workload: str, seed: int, ladder=LADDER) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-ladder":
        ops = [_op(["verify", "--field", f, "--format", "json"], kind="verify")
               for f in ladder["verify"]]
        ops += [_op(["classes", "--field", f], kind="classes") for f in ladder["classes"]]
    elif workload == "scan-wide":
        ops = [_op(["enumerate", "--type", "II1", "--field", f, "--format", fmt], kind="enumerate")
               for f, fmt in ladder["scan_ii1"]]
        ops += [_op(["enumerate", "--type", t, "--field", f], kind="enumerate")
                for f, t in ladder["scan_full"]]
    elif workload == "queries":
        ops = _queries(rng, ladder)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng.shuffle(ops)
    return ops


def _op(argv, **check):
    return {"argv": argv, "check": check}


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

def _csv(sp: SParams) -> str:
    return ",".join(sp.field.format(v) for v in sp.astuple())


def _random_transform(rng, field) -> Transform:
    els = field.elements()
    while True:
        x, y, z, w = (rng.choice(els) for _ in range(4))
        if x * w - y * z:
            return Transform(x, y, z, w)


def _nonzero(rng, field, exclude=()):
    els = [el for el in field.elements() if el and el not in exclude]
    return rng.choice(els)


def _f2x_random(rng, field, max_deg=3):
    num = rng.randrange(1, 1 << (max_deg + 1))
    den = rng.randrange(1, 1 << (max_deg + 1))
    return field.from_polys(num, den)


def _queries(rng, ladder) -> list[dict]:
    ops = []
    for spec, npos, nneg in ladder["iso"]:
        field = field_from_spec(spec)
        family = [sp for _, sp in theorem_families(field)]
        for _ in range(npos):
            s = rng.choice(family)
            s2, _ = to_straight_form(transform(s.to_structure_matrix(), _random_transform(rng, field)))
            ops.append(_op(["iso", "--field", spec, "--lhs", _csv(s), "--rhs", _csv(s2)],
                           kind="iso", isomorphic=True))
        for _ in range(nneg):
            s, s2 = rng.sample(family, 2)
            ops.append(_op(["iso", "--field", spec, "--lhs", _csv(s), "--rhs", _csv(s2)],
                           kind="iso", isomorphic=False))

    for spec, rel in ladder["test"]:
        field = field_from_spec(spec)
        exclude = (field.from_int(-4),) if rel == "sim5" else ()
        t, t2 = (_nonzero(rng, field, exclude) for _ in range(2))
        ops.append(_op(["equiv", "--field", spec, "--relation", rel, "--test",
                        field.format(t), field.format(t2)], kind="related"))

    # Q, sim1: t' = t*r^2 is related, t' = t*prime is not.  Positive
    # values only, since argparse reads "-3/4" as an option.
    for i in range(ladder["rationals"]):
        t = Fraction(rng.randint(1, 60), rng.randint(1, 60))
        if i % 2 == 0:
            t2, expect = t * Fraction(rng.randint(1, 30), rng.randint(1, 30)) ** 2, True
        else:
            t2, expect = t * rng.choice(SMALL_PRIMES), False
        ops.append(_op(["equiv", "--field", "Q", "--relation", "sim1", "--test", str(t), str(t2)],
                       kind="related", related=expect))

    # F2(X), sim3: t = t' x^2 + y^2 is related; X*w^2 is never related to
    # a square v^2, because t' x^2 + y^2 stays in the subfield F2(X^2).
    f2x = field_from_spec("F2(X)")
    gen_x = f2x.from_polys(2, 1)
    for i in range(ladder["f2x_sim3"]):
        if i % 2 == 0:
            t = f2x.zero()
            while not t:
                t2, x, y = _f2x_random(rng, f2x), _f2x_random(rng, f2x), _f2x_random(rng, f2x)
                t = t2 * x * x + y * y
            expect = True
        else:
            w, v = _f2x_random(rng, f2x), _f2x_random(rng, f2x)
            t, t2, expect = gen_x * w * w, v * v, False
        ops.append(_op(["equiv", "--field", "F2(X)", "--relation", "sim3", "--test",
                        f2x.format(t), f2x.format(t2)], kind="related", related=expect))

    # F2(X), sim2/sim4 bounded search: a target x^2 + x has a witness of
    # degree <= 3; the target X has none (x^2 + x has even degree).
    for i in range(ladder["bounded"]):
        rel = "sim2" if i % 4 < 2 else "sim4"
        expect = i % 2 == 0
        while True:
            t = _f2x_random(rng, f2x)
            target = _f2x_random(rng, f2x, max_deg=2) if expect else gen_x
            if expect:
                target = target * target + target
            if rel == "sim2":
                t2 = t + target
            else:
                inv = t.inverse() + target
                t2 = inv.inverse() if inv else f2x.zero()
            if t2:
                break
        ops.append(_op(["equiv", "--field", "F2(X)", "--relation", rel, "--test",
                        f2x.format(t), f2x.format(t2), "--degree-bound", str(DEGREE_BOUND)],
                       kind="bounded", found=expect))

    for spec, rel in ladder["reps"]:
        ops.append(_op(["equiv", "--field", spec, "--relation", rel, "--reps"], kind="reps"))
    return ops


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _arg(argv, flag, n=1):
    i = argv.index(flag)
    return argv[i + 1] if n == 1 else argv[i + 1:i + 1 + n]


def _related_by_definition(rel: str, field, t, t2, witness) -> bool:
    """Does the printed witness satisfy the relation's defining equation?"""
    if rel == "sim1":
        return witness * witness == t / t2
    if rel == "sim5":
        four = field.from_int(4)
        return witness * witness == (t2 * (four + t)) / (t * (four + t2))
    if rel == "sim2":
        return witness * witness + witness == t + t2
    if rel == "sim4":
        return witness * witness + witness == t.inverse() + t2.inverse()
    x, y = witness  # sim3: t' x^2 + y^2 + t = 0 with x != 0
    return bool(x) and t2 * x * x + y * y + t == field.zero()


def _expected_classes(rel: str, field) -> int:
    """Class count of the relations the --reps queries use (not sim5)."""
    if field.characteristic() == 2:
        return 2 if rel in ("sim2", "sim4") else 1  # the trace splits K*; squaring is onto
    return 2  # sim1 over an odd finite field: squares and non-squares


def check(op: dict, rc: int, stdout: str) -> str | None:
    """None when the output is right, else what is wrong with it."""
    c, argv = op["check"], op["argv"]
    kind = c["kind"]
    try:
        tsv = kind == "enumerate" and "json" not in argv
        doc = None if tsv else json.loads(stdout)
        if kind == "verify":
            if rc != 0 or doc["verdict"] != "pass":
                return f"verdict {doc['verdict']!r}, exit {rc}"
        elif kind == "classes":
            field = field_from_spec(_arg(argv, "--field"))
            want = len(theorem_families(field))
            if rc != 0 or len(doc["classes"]) != want:
                return f"{len(doc['classes'])} classes, expected {want}, exit {rc}"
        elif kind == "enumerate":
            rows = len(doc["algebras"]) if doc is not None else len(stdout.splitlines()) - 1
            if rc != 0 or rows < 1:
                return f"{rows} algebras, exit {rc}"
        elif kind == "iso":
            field = field_from_spec(_arg(argv, "--field"))
            lhs = SParams(*(field.parse(v) for v in _arg(argv, "--lhs").split(",")))
            rhs = SParams(*(field.parse(v) for v in _arg(argv, "--rhs").split(",")))
            if doc["isomorphic"] != c["isomorphic"] or rc != (0 if c["isomorphic"] else 1):
                return f"isomorphic={doc['isomorphic']}, exit {rc}, expected {c['isomorphic']}"
            if c["isomorphic"] and not check_iso_system(lhs, rhs, Transform.from_json(field, doc["witness"])):
                return f"witness {doc['witness']} fails check_iso_system"
        elif kind == "related":
            return _check_related(c, argv, rc, doc)
        elif kind == "bounded":
            field = field_from_spec("F2(X)")
            t, t2 = (field.parse(v) for v in _arg(argv, "--test", 2))
            found = doc["witness"] is not None
            if found != c["found"] or rc != (0 if found else 1):
                return f"witness {doc['witness']}, exit {rc}, expected found={c['found']}"
            if found and not _related_by_definition(_arg(argv, "--relation"), field, t, t2,
                                                    field.parse(doc["witness"])):
                return f"witness {doc['witness']} does not solve x^2 + x = target"
        elif kind == "reps":
            return _check_reps(argv, rc, doc)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError, ArithmeticError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None


def _check_related(c, argv, rc, doc) -> str | None:
    field = field_from_spec(_arg(argv, "--field"))
    rel = _arg(argv, "--relation")
    t, t2 = (field.parse(v) for v in _arg(argv, "--test", 2))
    ok = doc["related"]
    if rc != (0 if ok else 1):
        return f"related={ok} with exit {rc}"
    if "related" in c and ok != c["related"]:
        return f"related={ok}, expected {c['related']}"
    if ok:
        wit = doc["witness"]
        wit = tuple(field.parse(w) for w in wit) if isinstance(wit, list) else field.parse(wit)
        if not _related_by_definition(rel, field, t, t2, wit):
            return f"witness {doc['witness']} does not satisfy {rel}"
    elif field.is_finite:
        els = field.elements()
        cands = [(x, y) for x in els for y in els] if rel == "sim3" else els
        if any(_related_by_definition(rel, field, t, t2, w) for w in cands):
            return f"{rel} holds by search but the answer is 'not related'"
    return None


def _check_reps(argv, rc, doc) -> str | None:
    field = field_from_spec(_arg(argv, "--field"))
    rel = _arg(argv, "--relation")
    carrier = {field.format(el) for el in field.elements() if el}
    if rel == "sim5":
        carrier.discard(field.format(field.from_int(-4)))
    classes = doc["classes"]
    members = [m for ms in classes.values() for m in ms]
    if rc != 0 or sorted(classes) != sorted(doc["representatives"]):
        return f"representatives and classes disagree, exit {rc}"
    if len(members) != len(set(members)) or set(members) != carrier:
        return "classes do not partition the carrier"
    if any(rep not in ms for rep, ms in classes.items()):
        return "a representative lies outside its class"
    want = _expected_classes(rel, field)
    if len(classes) != want:
        return f"{len(classes)} classes, expected {want}"
    return None
