import random

import pytest

from endoclass import (CarrierError, InfiniteFieldError, RelationId,
                       UnsupportedRelation, bounded_refutation_search,
                       carrier_elements, equiv, field_from_spec, is_square, related,
                       rep_system)
from endoclass import gf2x
from endoclass.equiv import MAX_DEGREE_BOUND

F2 = field_from_spec("F2")
F3 = field_from_spec("F3")
F4 = field_from_spec("F4")
F5 = field_from_spec("F5")
F7 = field_from_spec("F7")
F8 = field_from_spec("F8")
F9 = field_from_spec("F9")
F13 = field_from_spec("F13")
F16 = field_from_spec("F16")
Q = field_from_spec("Q")
F2X = field_from_spec("F2(X)")

CHAR2 = (F2, F4, F8, F16)
ODD = (F3, F5, F7, F9, F13)


def _relations_for(field):
    out = [RelationId.SIM1]
    if field.characteristic() == 2:
        out += [RelationId.SIM2, RelationId.SIM3, RelationId.SIM4]
    else:
        out += [RelationId.SIM5]
    return out


def _verify_witness(rel, field, t, t2, wit):
    if rel in (RelationId.SIM1, RelationId.SIM5):
        if rel is RelationId.SIM1:
            target = t / t2
        else:
            four = field.from_int(4)
            target = (t2 * (four + t)) / (t * (four + t2))
        assert wit * wit == target
    elif rel is RelationId.SIM3:
        x, y = wit
        assert x
        assert t2 * x * x + y * y + t == field.zero()
    else:
        target = t + t2 if rel is RelationId.SIM2 else t.inverse() + t2.inverse()
        assert wit * wit + wit == target


# ---------------------------------------------------------------------------
# decision examples
# ---------------------------------------------------------------------------

def test_sim1_f7():
    ok, s = related(RelationId.SIM1, F7, F7.from_int(1), F7.from_int(2))
    assert ok and s * s == F7.from_int(1) / F7.from_int(2)
    assert not related(RelationId.SIM1, F7, F7.from_int(1), F7.from_int(3))[0]


def test_sim2_f4():
    w = F4.generator()
    ok, x = related(RelationId.SIM2, F4, w, w * w)
    assert ok and x == w and x * x + x == F4.one()


def test_sim3_f2x_classes():
    one, X = F2X.one(), F2X.parse("X")
    assert related(RelationId.SIM3, F2X, one, X) == (False, None)
    ok, wit = related(RelationId.SIM3, F2X, F2X.parse("X^3+X^2"), X)
    assert ok
    _verify_witness(RelationId.SIM3, F2X, F2X.parse("X^3+X^2"), X, wit)


def test_sim3_f2x_fraction_rule():
    # p/q is in the class of p*q: an odd-degree term decides
    cases = [("X", True), ("X^2", False), ("(X^2+X)/(X^3)", True),
             ("(X^2+1)/(X^4)", False), ("(X^3+X+1)/(X+1)", True), ("1/X", True),
             ("(X^2+1)/(X^4+X^2+1)", False)]
    X = F2X.parse("X")
    for s, in_x_class in cases:
        t = F2X.parse(s)
        ok, wit = related(RelationId.SIM3, F2X, t, X)
        assert ok == in_x_class, s
        if ok:
            _verify_witness(RelationId.SIM3, F2X, t, X, wit)
        ok1, wit1 = related(RelationId.SIM3, F2X, t, F2X.one())
        assert ok1 == (not in_x_class), s
        if ok1:
            _verify_witness(RelationId.SIM3, F2X, t, F2X.one(), wit1)


# (t, t', x, y): the witness itself is pinned, not only its equation; the
# first three pairs are chosen by hand, the rest drawn with
# random.Random(23) from numerators and denominators of degree below 6
F2X_SIM3_WITNESSES = [
    ("X", "X+1", "1", "1"),
    ("X^3+X^2", "X", "X", "X"),
    ("(X^2+1)/(X^3+X)", "1/X", "1", "0"),
    ("(X^4+X^3+X^2+X)/(X^4+X^3+1)", "(X^5+X^4+X^3+X^2+1)/(X^4+X+1)",
     "(X^5+X^4+X^2+1)/(X^8+X^6+1)", "(X^8+X^7+X^4+X^3+X+1)/(X^8+X^6+1)"),
    ("(X^3+X+1)/(X^3+1)", "X+1", "(1)/(X^3+1)", "(X^2)/(X^2+X+1)"),
    ("(X^4+X+1)/(X^3+X)", "(X^4+X^3+X^2)/(X^4+X^3+1)",
     "(X^4+X^3+1)/(X^2)", "(X^4+X^3+X^2+X+1)/(X^2+X)"),
    ("(X^4+X^3+X^2+X)/(X^3+X^2+1)", "(X^3+1)/(X^5+X^3+X^2+X+1)",
     "(X^8+X^6+X^4+X^2+X+1)/(X^3+X^2+1)", "(X^7+X^6+X^5+1)/(X^3+X^2+1)"),
    ("(X^3+X^2+1)/(X^4+X)", "X^4+X^3+X^2+1",
     "(X^3+X+1)/(X^5+X^2)", "(X^4+X^3+X^2+X+1)/(X^4+X^3+X^2)"),
    ("(X+1)/(X^3)", "(X^2+1)/(X^3+X+1)", "(X^3+X+1)/(X^4+X^2)", "(X^2+X+1)/(X^3+X^2)"),
    ("(X)/(X^2+X+1)", "(X)/(X^4+X^2+1)", "X+1", "(X)/(X^2+X+1)"),
    ("(X^4+X^2+X+1)/(X^4)", "(X^4+X^3+X+1)/(X)", "(1)/(X^3+X)", "(X^3+X+1)/(X^3+X^2)"),
    ("(X^5+1)/(X^5+X^3+1)", "(X^5+X^3+X^2+X+1)/(X^4+X^3+X^2)",
     "(X^3+X^2+X)/(X^7+X^3+X^2+1)", "(X^7+X^6+X^5+X^4+X^3+X^2+X)/(X^7+X^3+X^2+1)"),
    ("(X^4+X^2+X+1)/(X^5+X^4+X)", "(X)/(X^2+X+1)",
     "(X^6+X^4+X^3+X^2+1)/(X^6+X^4+X^2+X)", "(X)/(X^5+X^3+X+1)"),
    ("(X^4+X^3+1)/(X^2)", "(X^4+X^2)/(X^2+X+1)", "(X^2+X+1)/(X^2+X)", "(X+1)/(X)"),
    ("(X^3+X+1)/(X^3)", "(X^3+X^2)/(X^4+X^3+X^2+X+1)",
     "(X^4+X^3+X^2+X+1)/(X^5)", "(X^4+X^3+1)/(X^4)"),
    ("(X^5+X^2+1)/(X^4+X+1)", "(X^4+X^3+1)/(X^4+X^2+1)",
     "(X^6+X^5+X^2+1)/(X^5+X^2+X)", "(X^6+X^2+1)/(X^5+X^2+X)"),
    ("(X^4+X^2+1)/(X^5+X^2+1)", "(X)/(X^4+X+1)",
     "(X^8+X^7+X^6+X^5+X^2)/(X^7+X^5+X^4+1)", "(X^4+X^2+1)/(X^7+X^5+X^4+1)"),
    ("(X^4+X^3+X^2+X+1)/(X^3+X^2)", "(X^5+X^3+X^2+X)/(X^4+X^3+X^2+X+1)",
     "(X^5+X^4+X^3+X^2+X)/(X^5+X^4+X^2+1)", "(X^5+1)/(X^5+X^2+X)"),
    ("(X^5+X^2+X)/(X^5+X^4+X+1)", "(X+1)/(X^2)", "(X^3+X^2+X)/(X^3+X^2+X+1)", "1"),
    ("(X^5+X^3+X)/(X^3+X+1)", "(X+1)/(X^3+X^2+1)",
     "(X^5+X+1)/(X^3+X+1)", "(X^2+X+1)/(X^3+X+1)"),
    ("(X^3+X^2)/(X^5+X+1)", "(X^4+X^2+1)/(X^5+X^3+X^2)",
     "(X^7+X^5+X^4)/(X^8+X^5+X^4+X^3+X+1)", "(X^5+X^4+X)/(X^6+X^5+X^2+1)"),
    ("(X^4+X+1)/(X^4+X^3+X^2+X)", "(X^3+X^2+1)/(X^5+X^2+X)",
     "(X^6+X^5+X^4+X^3+1)/(X^5+X^2+X+1)", "(X^4+X+1)/(X^5+X^2+X+1)"),
    ("(X+1)/(X^5+X^2+1)", "(X^4+X)/(X^5+X^4+X^3+X^2+1)",
     "(X^7+X^5+X^4+X+1)/(X^9+X^8+X^7+X+1)", "(X^7+X^5+X^3+1)/(X^9+X^8+X^7+X+1)"),
]


@pytest.mark.parametrize("t, t2, x, y", F2X_SIM3_WITNESSES)
def test_sim3_f2x_witnesses_are_pinned(t, t2, x, y):
    ok, (wx, wy) = related(RelationId.SIM3, F2X, F2X.parse(t), F2X.parse(t2))
    assert ok and (F2X.format(wx), F2X.format(wy)) == (x, y)
    _verify_witness(RelationId.SIM3, F2X, F2X.parse(t), F2X.parse(t2), (wx, wy))


def test_sim1_q_distinct_primes():
    assert related(RelationId.SIM1, Q, Q.from_int(2), Q.from_int(3)) == (False, None)
    ok, s = related(RelationId.SIM1, Q, Q.from_int(8), Q.from_int(2))
    assert ok and s == Q.from_int(2)


def test_sim5_q_separated_primes():
    for a, b in ((2, 7), (2, 13), (7, 13)):
        assert not related(RelationId.SIM5, Q, Q.from_int(a), Q.from_int(b))[0]


def test_sim5_reflexive():
    for t in (Q.from_int(2), Q.parse("3/5"), Q.from_int(-7)):
        ok, s = related(RelationId.SIM5, Q, t, t)
        assert ok and s * s == Q.one()


def test_sim3_finite_char2_always_related():
    for field in CHAR2:
        units = [e for e in field.elements() if e]
        for t in units:
            for t2 in units:
                ok, wit = related(RelationId.SIM3, field, t, t2)
                assert ok
                _verify_witness(RelationId.SIM3, field, t, t2, wit)


# ---------------------------------------------------------------------------
# carrier and support errors
# ---------------------------------------------------------------------------

def test_zero_outside_carrier():
    with pytest.raises(CarrierError):
        related(RelationId.SIM1, F7, F7.zero(), F7.one())


def test_element_of_another_field_outside_carrier():
    for t, t2 in ((F3.one(), F5.one()), (F5.one(), F3.one())):
        with pytest.raises(CarrierError, match="^element does not belong to the given field$"):
            related(RelationId.SIM1, F5, t, t2)


def test_sim5_excludes_minus_four():
    with pytest.raises(CarrierError):
        related(RelationId.SIM5, Q, Q.from_int(-4), Q.from_int(2))
    # over F5, -4 is 1
    with pytest.raises(CarrierError):
        related(RelationId.SIM5, F5, F5.from_int(1), F5.from_int(2))


def test_sim5_carrier_f3_is_singleton():
    assert [str(t) for t in carrier_elements(RelationId.SIM5, F3)] == ["1"]


def test_unsupported_combinations():
    with pytest.raises(UnsupportedRelation):
        related(RelationId.SIM2, Q, Q.one(), Q.one())
    with pytest.raises(UnsupportedRelation):
        related(RelationId.SIM2, F2X, F2X.one(), F2X.one())
    with pytest.raises(UnsupportedRelation):
        related(RelationId.SIM4, F2X, F2X.one(), F2X.one())
    with pytest.raises(UnsupportedRelation):
        related(RelationId.SIM5, F4, F4.one(), F4.one())
    with pytest.raises(UnsupportedRelation):
        related(RelationId.SIM3, F5, F5.one(), F5.one())


# ---------------------------------------------------------------------------
# representative systems
# ---------------------------------------------------------------------------

def test_rep_system_sim1_f7():
    rs = rep_system(RelationId.SIM1, F7)
    assert [str(r) for r in rs.representatives] == ["1", "3"]
    classes = {str(k): sorted(str(v) for v in vs) for k, vs in rs.classes().items()}
    assert classes == {"1": ["1", "2", "4"], "3": ["3", "5", "6"]}


def test_rep_system_sim2_f4():
    rs = rep_system(RelationId.SIM2, F4)
    classes = {str(k): sorted(str(v) for v in vs) for k, vs in rs.classes().items()}
    assert classes == {"1": ["1"], "w": ["w", "w+1"]}


def test_rep_system_sim3_char2_is_single_class():
    for field in CHAR2:
        rs = rep_system(RelationId.SIM3, field)
        assert len(rs.representatives) == 1
        assert rs.representatives[0] == field.one()


def test_rep_system_sim4_f2():
    rs = rep_system(RelationId.SIM4, F2)
    assert rs.representatives == (F2.one(),)


def test_rep_system_f2x_sim3():
    rs = rep_system(RelationId.SIM3, F2X)
    assert [str(r) for r in rs.representatives] == ["1", "X"]
    assert str(rs.representative_of(F2X.parse("X^3+X^2"))) == "X"
    assert str(rs.representative_of(F2X.parse("(X^2+1)/(X^4)"))) == "1"
    with pytest.raises(CarrierError, match="^0 is not in the carrier$"):
        rs.representative_of(F2X.zero())
    # as on the finite systems, an element of another field is refused
    with pytest.raises(CarrierError, match="^element does not belong to the given field$"):
        rs.representative_of(F4.one())
    with pytest.raises(InfiniteFieldError):
        rs.classes()


def test_rep_system_f2x_sim3_follows_the_odd_term_rule():
    # oracle: num/den is in X's class iff num*den has an odd-degree term
    def odd_term(t):
        return gf2x.odd_even_split(gf2x.mul(*t.payload))[0] != 0
    rs = rep_system(RelationId.SIM3, F2X)
    one, gen_x = rs.representatives
    rng = random.Random(2302)
    for _ in range(300):
        t = F2X.from_polys(rng.randrange(1, 1 << 12), rng.randrange(1, 1 << 12))
        assert rs.representative_of(t) == (gen_x if odd_term(t) else one), t


def test_rep_system_infinite_unsupported():
    with pytest.raises(InfiniteFieldError):
        rep_system(RelationId.SIM1, Q)
    with pytest.raises(InfiniteFieldError):
        rep_system(RelationId.SIM1, F2X)


def test_rep_system_invariants_reverified():
    # representatives pairwise inequivalent; each carrier element related
    # to exactly one representative (its assigned one)
    for field in (F2, F3, F4, F5, F7, F8, F9, F13, F16):
        for rel in _relations_for(field):
            rs = rep_system(rel, field)
            reps = rs.representatives
            for i, r in enumerate(reps):
                for r2 in reps[i + 1:]:
                    assert not related(rel, field, r, r2)[0]
            for t in carrier_elements(rel, field):
                hits = [r for r in reps if related(rel, field, t, r)[0]]
                assert hits == [rs.representative_of(t)]


def test_representative_of_refuses_what_is_outside_the_carrier():
    rs = rep_system(RelationId.SIM5, F7)
    assert rs.representative_of(F7.from_int(1)) == F7.one()
    # 0, -4 = 3 under sim5, and elements of other fields whose codes or
    # values lie in F7's carrier
    for t in (F7.zero(), F7.from_int(-4), F5.one(), F9.one(), F13.from_int(2),
              Q.one(), Q.from_int(2)):
        with pytest.raises(CarrierError):
            rs.representative_of(t)


def test_sim1_class_count_pattern():
    for field in (F3, F5, F7, F9, F13):
        assert len(rep_system(RelationId.SIM1, field).representatives) == 2
    for field in (F2, F4, F8, F16):
        assert len(rep_system(RelationId.SIM1, field).representatives) == 1


def test_sim5_square_class_cross_check():
    # t ~5 t'  iff  t(4+t) and t'(4+t') lie in the same square class
    for field in (F5, F7, F13):
        four = field.from_int(4)
        carrier = carrier_elements(RelationId.SIM5, field)
        for t in carrier:
            for t2 in carrier:
                direct = related(RelationId.SIM5, field, t, t2)[0]
                alt = is_square(field, (t * (four + t)) / (t2 * (four + t2)))[0]
                assert direct == alt


# ---------------------------------------------------------------------------
# equivalence axioms
# ---------------------------------------------------------------------------

def test_axioms_exhaustive_small_fields():
    rng = random.Random(42)
    for field in (F2, F3, F4, F5, F7, F8, F9, F13, F16):
        q = field.order()
        for rel in _relations_for(field):
            carrier = carrier_elements(rel, field)
            decide = {}
            for t in carrier:
                for t2 in carrier:
                    ok, wit = related(rel, field, t, t2)
                    decide[(t, t2)] = ok
                    if ok:
                        _verify_witness(rel, field, t, t2, wit)
            for t in carrier:
                assert decide[(t, t)]
                for t2 in carrier:
                    assert decide[(t, t2)] == decide[(t2, t)]
            if q <= 9:
                triples = [(a, b, c) for a in carrier for b in carrier for c in carrier]
            else:
                triples = [(rng.choice(carrier), rng.choice(carrier), rng.choice(carrier))
                           for _ in range(500)]
            for a, b, c in triples:
                if decide[(a, b)] and decide[(b, c)]:
                    assert decide[(a, c)]


# ---------------------------------------------------------------------------
# bounded refutation search over F2(X)
# ---------------------------------------------------------------------------

def test_bounded_search_odd_powers_unrelated():
    assert bounded_refutation_search(
        F2X, RelationId.SIM2, F2X.parse("X^3"), F2X.parse("X^5"), 6) is None


def test_bounded_search_rejects_a_negative_bound():
    with pytest.raises(ValueError, match="^degree bound must be nonnegative$"):
        bounded_refutation_search(F2X, RelationId.SIM2, F2X.parse("X"), F2X.one(), -1)


def test_bounded_search_trivial_witness():
    t = F2X.parse("(X^3+1)/(X+1)")
    assert bounded_refutation_search(F2X, RelationId.SIM2, t, t, 2) == F2X.zero()


def test_bounded_search_constructed_witness():
    # t + t' = X^2 + X by construction, so x = X solves x^2 + x = t + t'
    t = F2X.parse("X^4+X^2")
    t2 = F2X.parse("X^4+X")
    wit = bounded_refutation_search(F2X, RelationId.SIM2, t, t2, 1)
    assert wit == F2X.parse("X")


def test_bounded_search_sim4():
    # 1/t + 1/t' = X^2 + X with t = 1/(X^2), t' reconstructed
    t = F2X.parse("1/(X^2)")
    t2_inv = F2X.parse("X^2") + F2X.parse("X^2+X")   # = X
    t2 = t2_inv.inverse()
    wit = bounded_refutation_search(F2X, RelationId.SIM4, t, t2, 2)
    assert wit is not None
    assert wit * wit + wit == t.inverse() + t2.inverse()


@pytest.mark.parametrize("rel", [RelationId.SIM2, RelationId.SIM4])
def test_bounded_search_answers_an_odd_pole_at_once(rel, monkeypatch):
    # target X: x^2 + x has an even pole order at infinity or none, so
    # the search needs no denominator at all, even at the largest bound
    calls = []
    least = equiv._least_solution

    def counting(den, rhs):
        calls.append(den)
        return least(den, rhs)
    monkeypatch.setattr(equiv, "_least_solution", counting)
    t = F2X.parse("(X^2+1)/(X^3+X+1)")
    x = F2X.parse("X")
    t2 = t + x if rel is RelationId.SIM2 else (t.inverse() + x).inverse()
    assert bounded_refutation_search(F2X, rel, t, t2, MAX_DEGREE_BOUND) is None
    assert calls == []


def test_bounded_search_argument_validation():
    with pytest.raises(UnsupportedRelation):
        bounded_refutation_search(Q, RelationId.SIM2, Q.one(), Q.one(), 3)
    with pytest.raises(UnsupportedRelation):
        bounded_refutation_search(F2X, RelationId.SIM3, F2X.one(), F2X.one(), 3)
    with pytest.raises(CarrierError):
        bounded_refutation_search(F2X, RelationId.SIM2, F2X.zero(), F2X.one(), 3)
