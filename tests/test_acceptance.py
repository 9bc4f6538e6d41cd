"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines; every
criterion carries its runtime budget as an assertion.
"""

import itertools
import random
import time

from endoclass import (RelationId, bounded_refutation_search, carrier_elements,
                       check_iso_system, enumerate_type_ii1, field_from_spec,
                       is_endo_commutative_straight, lift, related,
                       rep_system, verify_classification)
from endoclass.classify import _by_stratum
from endoclass.iso import Transform

from common import (CHAR_NOT2_CATALOG, is_endo_commutative_definitional, lifted_product,
                    scan_strata, sp)


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def _all_tuples(field):
    q = field.order()
    for codes in itertools.product(range(q), repeat=6):
        yield sp(field, *(field.element_of_code(c) for c in codes))


def test_criterion_1_ec_oracle_equivalence():
    start = time.perf_counter()
    disagreements = 0
    checked = 0
    for spec in ("F3", "F4"):
        field = field_from_spec(spec)
        for S in _all_tuples(field):
            checked += 1
            if is_endo_commutative_straight(S) != \
                    is_endo_commutative_definitional(S.to_structure_matrix()):
                disagreements += 1
    elapsed = time.perf_counter() - start
    _report("criterion 1 (EC closed form vs definitional oracle)",
            disagreements == 0 and checked == 3**6 + 4**6 and elapsed < 10.0,
            f"{checked} tuples, {disagreements} disagreements, {elapsed:.2f}s (< 10s)")


def test_criterion_2_lift_homomorphism():
    start = time.perf_counter()
    f3 = field_from_spec("F3")
    gl2 = []
    for x in f3.elements():
        for y in f3.elements():
            for z in f3.elements():
                for w in f3.elements():
                    if x * w != y * z:
                        gl2.append(Transform(x, y, z, w))
    assert len(gl2) == 48
    failures = 0
    lifts = {X.codes(): lift(X) for X in gl2}
    for X in gl2:
        for Y in gl2:
            if lift(X @ Y) != lifted_product(lifts[X.codes()], lifts[Y.codes()]):
                failures += 1
    f5 = field_from_spec("F5")
    rng = random.Random(20250810)
    pairs = 0
    while pairs < 1000:
        codes = [rng.randrange(5) for _ in range(8)]
        x1, y1, z1, w1, x2, y2, z2, w2 = (f5.element_of_code(c) for c in codes)
        if x1 * w1 == y1 * z1 or x2 * w2 == y2 * z2:
            continue
        X, Y = Transform(x1, y1, z1, w1), Transform(x2, y2, z2, w2)
        if lift(X @ Y) != lifted_product(lift(X), lift(Y)):
            failures += 1
        pairs += 1
    elapsed = time.perf_counter() - start
    _report("criterion 2 (lift is a group homomorphism)",
            failures == 0 and elapsed < 5.0,
            f"48x48 exhaustive + 1000 random pairs, {failures} failures, "
            f"{elapsed:.2f}s (< 5s)")


def test_criterion_3_subclass_lemmas():
    start = time.perf_counter()
    bad = []
    for spec in ("F2", "F3", "F4", "F5"):
        field = field_from_spec(spec)
        closed_form, direct_scan = _by_stratum(enumerate_type_ii1(field)), scan_strata(field)
        for k in (1, 2, 3, 4):
            closed = sorted(s.codes() for s in closed_form[k])
            scanned = sorted(s.codes() for s in direct_scan[k])
            if closed != scanned:
                bad.append(f"{spec} subclass {k}")
        if direct_scan[2] or closed_form[2]:
            bad.append(f"{spec} subclass 2 nonempty")
    elapsed = time.perf_counter() - start
    _report("criterion 3 (subclass parametrizations equal direct scans)",
            not bad and elapsed < 30.0,
            f"F2..F5 all strata, mismatches: {bad or 'none'}, {elapsed:.2f}s (< 30s)")


def test_criterion_4_main_theorem_verification():
    # class counts follow the q+7 (odd characteristic) / q+3 (char 2, q>2) /
    # 3 (F2) patterns; the exhaustive partition is the authority and fixes
    # F9 at 16 = 9+7
    expected = {"F2": 3, "F3": 10, "F4": 7, "F5": 12, "F7": 14, "F8": 11, "F9": 16}
    budgets = {"F5": 60.0, "F9": 600.0}
    details = []
    ok = True
    for spec, classes_expected in expected.items():
        start = time.perf_counter()
        report = verify_classification(field_from_spec(spec))
        elapsed = time.perf_counter() - start
        good = (report.verdict and report.counts["classes"] == classes_expected
                and elapsed < budgets.get(spec, 600.0))
        ok = ok and good
        details.append(f"{spec}:{report.counts['classes']}"
                       f"{'' if good else '!FAIL'} ({elapsed:.2f}s)")
    _report("criterion 4 (families match the exhaustive partition)",
            ok, ", ".join(details))


def test_criterion_5_witness_matrices():
    start = time.perf_counter()
    failures = []
    instances = 0
    for spec in ("F5", "F7"):
        field = field_from_spec(spec)
        for name, gen in CHAR_NOT2_CATALOG:
            for lhs, rhs, X in gen(field):
                instances += 1
                if not check_iso_system(lhs, rhs, X):
                    failures.append(f"{spec}/{name}: {lhs} -> {rhs}")
    elapsed = time.perf_counter() - start
    _report("criterion 5 (explicit transformation matrices)",
            not failures and instances > 400,
            f"{instances} instantiations over F5 and F7, "
            f"failures: {failures or 'none'}, {elapsed:.2f}s")


def _f2x_corpus(field, size=50):
    """Deterministic corpus: nonzero reduced fractions by diagonal order."""
    out = []
    seen = set()
    for total in range(2, 40):
        for num in range(1, total):
            den = total - num
            el = field.element(field._reduce(num, den))
            if el.payload in seen:
                continue
            seen.add(el.payload)
            out.append(el)
            if len(out) == size:
                return out
    raise AssertionError("corpus exhausted")


def test_criterion_6_relation_lemmas():
    start = time.perf_counter()
    f2x = field_from_spec("F2(X)")
    one, gen_x = f2x.one(), f2x.parse("X")
    corpus = _f2x_corpus(f2x)
    assert len(corpus) == 50
    problems = []

    # sim3 over F2(X): exactly the two classes of 1 and X on the corpus,
    # with every positive decision carrying a verified witness
    rs = rep_system(RelationId.SIM3, f2x)
    if [str(r) for r in rs.representatives] != ["1", "X"]:
        problems.append("representatives are not {1, X}")
    for t in corpus:
        hits = []
        for rep in (one, gen_x):
            ok, wit = related(RelationId.SIM3, f2x, t, rep)
            if ok:
                hits.append(rep)
                x, y = wit
                if not x or rep * x * x + y * y + t != f2x.zero():
                    problems.append(f"bad witness for {t} ~ {rep}")
        if len(hits) != 1 or hits[0] != rs.representative_of(t):
            problems.append(f"{t} not in exactly one class")

    # bounded refutation for X^3 vs X^5 up to degree 8
    if bounded_refutation_search(f2x, RelationId.SIM2,
                                 f2x.parse("X^3"), f2x.parse("X^5"), 8) is not None:
        problems.append("sim2 found a bogus witness for (X^3, X^5)")

    # distinct primes stay apart under sim1 over Q
    Q = field_from_spec("Q")
    for a, b in itertools.combinations((2, 3, 5, 7), 2):
        if related(RelationId.SIM1, Q, Q.from_int(a), Q.from_int(b))[0]:
            problems.append(f"sim1 merged primes {a}, {b}")

    # the prime chain 2, 7, 13 stays apart under sim5 over Q
    for a, b in itertools.combinations((2, 7, 13), 2):
        if related(RelationId.SIM5, Q, Q.from_int(a), Q.from_int(b))[0]:
            problems.append(f"sim5 merged {a}, {b}")

    elapsed = time.perf_counter() - start
    _report("criterion 6 (relation facts over F2(X) and Q)",
            not problems and elapsed < 30.0,
            f"50-element corpus, bound-8 refutation, prime separations; "
            f"problems: {problems or 'none'}, {elapsed:.2f}s (< 30s)")


def test_criterion_7_equivalence_axioms():
    start = time.perf_counter()
    failures = 0
    checked_pairs = 0
    for spec in ("F2", "F3", "F4", "F5", "F7", "F8", "F9"):
        field = field_from_spec(spec)
        relations = [RelationId.SIM1]
        if field.characteristic() == 2:
            relations += [RelationId.SIM2, RelationId.SIM3, RelationId.SIM4]
        else:
            relations += [RelationId.SIM5]
        for rel in relations:
            carrier = carrier_elements(rel, field)
            decide = {}
            for t in carrier:
                for t2 in carrier:
                    decide[(t, t2)] = related(rel, field, t, t2)[0]
                    checked_pairs += 1
            for t in carrier:
                if not decide[(t, t)]:
                    failures += 1
                for t2 in carrier:
                    if decide[(t, t2)] != decide[(t2, t)]:
                        failures += 1
                    for t3 in carrier:
                        if decide[(t, t2)] and decide[(t2, t3)] and not decide[(t, t3)]:
                            failures += 1
    elapsed = time.perf_counter() - start
    _report("criterion 7 (equivalence axioms, all relations, q <= 9)",
            failures == 0,
            f"{checked_pairs} carrier pairs plus all triples, "
            f"{failures} failures, {elapsed:.2f}s")
