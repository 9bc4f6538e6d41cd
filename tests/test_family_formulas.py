"""The predicted family shapes as formulas in a parameter t, checked
beyond one finite field at a time.

The eight shapes are written out here as functions of (field, t) in
`FieldElement` arithmetic, independently of the rows on codes that
`theorem_families` evaluates.  The first test pins them to the
catalogue on every supported finite field and on three presentations
by another modulus, so they are its oracle and cannot drift from it.
Then:

* at the generic point of characteristic 2, t = X in F2(X), the four
  characteristic-2 shapes are endo-commutative of type II1;
* over Q the identities E1-E5 of the odd shapes are polynomials in t of
  degree at most 4, so holding at the 38 points t = 2..39 means they
  hold in Z[1/2][t], that is in every field of characteristic != 2;
* the values the catalogue excludes give what the formulas say;
* the scaling x -> lam*x carries S3(t) onto S3(lam^2 t), and S2'(t) onto
  S2'(lam^2 t), by X = diag(1/lam, 1/lam^2).
"""

from fractions import Fraction
from itertools import groupby

import pytest

from common import FINITE_SPECS, OTHER_MODULI, F, is_type, sp, tr
from endoclass import AlgebraType, are_isomorphic, check_iso_system, rank, theorem_families

Q = F("Q")
F2X = F("F2(X)")
SIGNS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]


def s1(K, t=None):
    return sp(K, 0, 1, 1, 0, -1, 2)


def s2(K, t=None):
    return sp(K, 0, 4, -4, -4, 4, 0)


def s3(K, t, eps=1, delta=1):
    return sp(K, 0, eps * t, t, 0, delta * t, 0)


def s4(K, t):
    return sp(K, 0, (1 + t) ** 2 / 4, (t * t - 1) / 4, 1, (1 - t * t) / 4, t)


def s1p(K, t):
    return sp(K, 0, t, t, 0, t, 1)


def s2p(K, t):
    return sp(K, 0, t, t, 0, t, 0)


def s3p(K, t):
    return sp(K, 0, t, t, t, t, 0)


def s4p(K, t):
    den = 1 + t * t
    return sp(K, 0, t * t / den, t / den, 1, t / den, 1)


SHAPES = {"S1": s1, "S2": s2, "S3": s3, "S4": s4,
          "S1'": s1p, "S2'": s2p, "S3'": s3p, "S4'": s4p}
ODD = ["F5", "F7", "F9", "F13"]
EVEN = ["F4", "F8", "F16"]


@pytest.mark.parametrize("spec", FINITE_SPECS + OTHER_MODULI)
def test_shapes_give_the_catalogue(spec):
    K = F(spec)
    families = theorem_families(K)
    for label, member in families:
        signs = {} if label.eps is None else {"eps": label.eps, "delta": label.delta}
        assert SHAPES[label.tag](K, label.t, **signs) == member, str(label)
    # the last shape runs over K* minus {1, -1}, empty for q <= 3; the
    # excluded values are tested below
    odd = K.characteristic() != 2
    tags = ["S1", "S2", "S3", "S4"] if odd else ["S1'", "S2'", "S3'", "S4'"]
    if K.order() <= 3:
        tags.pop()
    assert [tag for tag, _ in groupby(label.tag for label, _ in families)] == tags
    assert ([label.t for label, _ in families if label.tag == ("S4" if odd else "S4'")]
            == [t for t in K.elements() if t and t != 1 and t != -1])


@pytest.mark.parametrize("tag", ["S1'", "S2'", "S3'", "S4'"])
def test_char2_shapes_at_the_generic_point(tag):
    S = SHAPES[tag](F2X, F2X.parse("X"))
    assert is_type(S, AlgebraType.II_1), str(S)


def test_odd_shapes_hold_for_every_t():
    for n in range(2, 40):
        t = Q.from_int(n)
        assert is_type(s4(Q, t), AlgebraType.II_1), n
        for eps, delta in SIGNS:
            assert is_type(s3(Q, t, eps, delta), AlgebraType.II_1), (n, eps, delta)


@pytest.mark.parametrize("spec", ODD)
def test_s4_at_its_excluded_values(spec):
    K = F(spec)
    for t in (K.one(), -K.one()):
        assert rank(s4(K, t).to_structure_matrix()) == 1
    at_zero = s4(K, K.zero())
    assert is_type(at_zero, AlgebraType.II_1)
    assert are_isomorphic(at_zero.to_structure_matrix(), s2(K).to_structure_matrix()) is not None


@pytest.mark.parametrize("spec", EVEN)
def test_s4p_at_zero_has_rank_one(spec):
    K = F(spec)
    assert rank(s4p(K, K.zero()).to_structure_matrix()) == 1


@pytest.mark.parametrize("spec", EVEN + ["F2", "F2(X)"])
def test_s4p_at_one_is_undefined(spec):
    K = F(spec)
    with pytest.raises(ZeroDivisionError):
        s4p(K, K.one())  # 1 + t^2 = 0


def scaling(K, lam):
    """diag(1/lam, 1/lam^2): the change of basis x -> lam*x."""
    return tr(K, 1 / lam, 0, 0, 1 / (lam * lam))


def test_scaling_carries_s3_over_q():
    for lam in (Q.from_int(2), Q.from_int(3), Q.element(Fraction(-5, 7))):
        X = scaling(Q, lam)
        for n in range(2, 40):
            t = Q.from_int(n)
            for eps, delta in SIGNS:
                S = s3(Q, t, eps, delta)
                assert check_iso_system(S, s3(Q, lam * lam * t, eps, delta), X), (n, lam)
                # the same X does not reach S3(lam t): the check is not vacuous
                assert not check_iso_system(S, s3(Q, lam * t, eps, delta), X), (n, lam)


def test_scaling_carries_s2p_over_f2x():
    t, lam = F2X.parse("X"), F2X.parse("X + 1")
    X = scaling(F2X, lam)
    assert check_iso_system(s2p(F2X, t), s2p(F2X, lam * lam * t), X)
    assert not check_iso_system(s2p(F2X, t), s2p(F2X, lam * t), X)
