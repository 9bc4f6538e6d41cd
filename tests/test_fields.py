import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from endoclass import (FieldDescriptor, FieldError, FieldMismatchError,
                       InfiniteFieldError, field_from_spec, field_make, is_square)
from endoclass.fields import MAX_ORDER, MAX_PRIME, _format_poly, default_modulus

from common import FINITE_SPECS, SHORTHANDS, _poly_from_code, el, poly_mul


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_prime_field_arithmetic():
    f5 = field_from_spec("F5")
    assert f5.from_int(3) + f5.from_int(4) == f5.from_int(2)
    assert f5.from_int(3) * f5.from_int(4) == f5.from_int(2)
    assert -f5.from_int(1) == f5.from_int(4)
    assert f5.from_int(2).inverse() == f5.from_int(3)


def test_extension_field_modulus_reduction():
    f4 = field_from_spec("F2^2/x^2+x+1")
    w = f4.generator()
    assert w * w == w + f4.one()
    assert (w + f4.one()) * (w + f4.one()) == w


@pytest.mark.parametrize("spec", ["F5^1/x+2", "F4"])
def test_generator_is_the_reduced_root_of_the_modulus(spec):
    # on a degree-1 extension w is a constant: F5^1/x+2 reads w as 3
    f = field_from_spec(spec)
    w = f.generator()
    assert w == f.parse("w")
    assert 0 <= f.code_of(w) < f.order()
    assert sum((f.from_int(c) * w**i for i, c in enumerate(f.modulus)), f.zero()) == f.zero()


def test_rationals():
    Q = field_from_spec("Q")
    assert Q.parse("2/3") * Q.parse("9/4") == Q.parse("3/2")
    assert Q.parse("-1/2") + Q.parse("1/2") == Q.zero()


def test_non_prime_rejected():
    with pytest.raises(FieldError):
        field_make(FieldDescriptor.prime(4))
    with pytest.raises(FieldError):
        field_from_spec("F1")


@pytest.mark.parametrize("descriptor, message", [
    (FieldDescriptor.prime("7"), "the characteristic must be an int, got str '7'"),
    (FieldDescriptor.extension(None, 2, (1, 1, 1)),
     "the characteristic must be an int, got NoneType None")])
def test_descriptor_of_the_wrong_type_is_named(descriptor, message):
    with pytest.raises(FieldError) as info:
        field_make(descriptor)
    assert str(info.value) == message


def test_reducible_modulus_rejected():
    with pytest.raises(FieldError):
        field_make(FieldDescriptor.extension(2, 2, (1, 0, 1)))  # (x+1)^2


@pytest.mark.parametrize("spec, message", [
    ("F4^2", "4 is not prime"),
    ("F3^6", "unsupported extension field order 3^6"),
    ("F2^0", "unsupported extension field order 2^0"),
    ("F2^8/x^8+1", "modulus x^8+1 is reducible over F2"),
    ("F3^2/x^2+2x+1", "modulus x^2+2x+1 is reducible over F3")])
def test_extension_spec_errors(spec, message):
    with pytest.raises(FieldError) as info:
        field_from_spec(spec)
    assert str(info.value) == message


def test_explicit_degree_takes_the_default_modulus():
    assert field_from_spec("F2^3") is field_from_spec("F8")
    assert field_from_spec("F2^3").spec_string() == "F2^3/x^3+x+1"


@pytest.mark.parametrize("p, k, modulus, message", [
    (4, 2, (1, 1, 1), "4 is not prime"),
    (2, 9, (1,) * 10, "extension degrees are supported up to 8, got 9"),
    (3, 6, (2, 0, 0, 0, 0, 0, 1), "extension fields are supported up to order 256, got 729"),
    (3, 2, (1, 0, 0, 1), "modulus must have degree 2")])
def test_extension_descriptor_errors(p, k, modulus, message):
    with pytest.raises(FieldError) as info:
        field_make(FieldDescriptor.extension(p, k, modulus))
    assert str(info.value) == message


def test_table_build_rejects_exactly_the_reducible_moduli():
    # every monic modulus of a field of order at most 128, against the
    # products of two monic factors of lower degree
    for p in (2, 3, 5, 7):
        for k in range(1, 8):
            if p**k > 128:
                continue
            monic = lambda d: [_poly_from_code(c, p, d) + (1,) for c in range(p**d)]
            reducible = {poly_mul(a, b, p)
                         for d in range(1, k // 2 + 1) for a in monic(d) for b in monic(k - d)}
            for m in monic(k):
                if m in reducible:
                    with pytest.raises(FieldError, match="is reducible over"):
                        field_make(FieldDescriptor.extension(p, k, m))
                else:
                    assert field_make(FieldDescriptor.extension(p, k, m)).modulus == m


@pytest.mark.parametrize("spec, message", [
    (FieldDescriptor.prime(10**18 + 3),
     f"prime fields are supported up to p = {MAX_PRIME}, got {10**18 + 3}"),
    (FieldDescriptor.extension(10**18 + 3, 2, (1, 0, 1)),
     f"extension fields are supported up to order {MAX_ORDER}, got {(10**18 + 3)**2}")],
    ids=["prime", "extension"])
def test_descriptors_are_bounded_before_primality(monkeypatch, spec, message):
    # trial division of a p near 10^18 runs for minutes: the bound comes first
    import endoclass.fields as fields
    is_prime = fields._is_prime

    def bounded_is_prime(n):
        assert n <= MAX_ORDER, f"primality test of {n}"
        return is_prime(n)
    monkeypatch.setattr(fields, "_is_prime", bounded_is_prime)
    with pytest.raises(FieldError) as info:
        field_make(spec)
    assert str(info.value) == message


def test_bad_degree_rejected():
    with pytest.raises(FieldError):
        field_make(FieldDescriptor.extension(2, 0, (1,)))


def test_size_guards():
    with pytest.raises(FieldError):
        field_from_spec("F101")
    with pytest.raises(FieldError):
        field_from_spec("F2^9")


def test_spec_string_round_trip():
    for spec in ("F2", "F5", "F97", "F2^2/x^2+x+1", "Q", "F2(X)"):
        f = field_from_spec(spec)
        assert field_from_spec(f.spec_string()) == f


def test_prime_power_shorthands():
    assert field_from_spec("F4").spec_string() == "F2^2/x^2+x+1"
    assert field_from_spec("F8").spec_string() == "F2^3/x^3+x+1"
    assert field_from_spec("F9").spec_string() == "F3^2/x^2+1"
    assert field_from_spec("F16").spec_string() == "F2^4/x^4+x+1"


def prime_power(n):
    """(p, k) with n = p^k for a prime p and k >= 1, or None."""
    p = next((d for d in range(2, n + 1) if n % d == 0), None)
    if p is None:
        return None
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return (p, k) if n == 1 else None


def test_every_order_up_to_the_largest_field():
    for n in range(MAX_ORDER + 1):
        spec, pk = f"F{n}", prime_power(n)
        if pk is None:
            with pytest.raises(FieldError, match=f"^{n} is neither prime nor a prime power$"):
                field_from_spec(spec)
        elif pk[1] == 1 and n > MAX_PRIME:
            with pytest.raises(FieldError, match=f"^prime fields are supported up to "
                                                 f"p = {MAX_PRIME}, got {n}$"):
                field_from_spec(spec)
        elif pk[1] == 1:
            assert field_from_spec(spec).descriptor == FieldDescriptor.prime(n)
        else:
            p, k = pk
            assert field_from_spec(spec).descriptor == \
                FieldDescriptor.extension(p, k, default_modulus(p, k))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumeration_small_fields():
    assert [str(e) for e in field_from_spec("F2").elements()] == ["0", "1"]
    assert [str(e) for e in field_from_spec("F3").elements()] == ["0", "1", "2"]
    assert [str(e) for e in field_from_spec("F4").elements()] == ["0", "1", "w", "w+1"]


def test_enumeration_rejects_infinite():
    with pytest.raises(InfiniteFieldError):
        field_from_spec("Q").elements()
    with pytest.raises(InfiniteFieldError):
        field_from_spec("F2(X)").elements()


def test_code_round_trip():
    for spec in ("F5", "F8", "F9"):
        f = field_from_spec(spec)
        for code in range(f.order()):
            assert f.code_of(f.element_of_code(code)) == code


# ---------------------------------------------------------------------------
# is_square
# ---------------------------------------------------------------------------

def test_is_square_examples():
    f7 = field_from_spec("F7")
    ok, s = is_square(f7, f7.from_int(2))
    assert ok and s == f7.from_int(3)
    assert is_square(f7, f7.from_int(3)) == (False, None)

    Q = field_from_spec("Q")
    ok, s = is_square(Q, Q.parse("4/9"))
    assert ok and s == Q.parse("2/3")
    assert is_square(Q, Q.from_int(-4))[0] is False

    f4 = field_from_spec("F4")
    w = f4.generator()
    ok, s = is_square(f4, w)
    assert ok and s == w + f4.one() and s * s == w


def test_is_square_matches_exhaustive_oracle():
    # oracle: the set {s*s : s != 0} collected by enumeration
    for spec in ("F2", "F3", "F4", "F5", "F7", "F8", "F9", "F16", "F25", "F49"):
        f = field_from_spec(spec)
        squares = {s * s for s in f.elements() if s}
        for t in f.elements():
            ok, wit = is_square(f, t)
            if t:
                assert ok == (t in squares), f"{spec}: {t}"
            else:
                assert ok
            if ok:
                assert wit * wit == t


def test_is_square_zero():
    f5 = field_from_spec("F5")
    assert is_square(f5, f5.zero()) == (True, f5.zero())
    for spec in ("Q", "F2(X)"):
        f = field_from_spec(spec)
        assert is_square(f, f.zero()) == (True, f.zero())


def test_is_square_rational_bound():
    # exact for any size: numerator and denominator must be perfect squares
    Q = field_from_spec("Q")
    assert is_square(Q, Q.from_int(2**64 + 1)) == (False, None)
    assert is_square(Q, Q.from_int(2**61 - 1)) == (False, None)  # a Mersenne prime
    ok, s = is_square(Q, Q.element(Fraction((2**61 - 1) ** 2, 3**40)))
    assert ok and s == Q.element(Fraction(2**61 - 1, 3**20))


def test_is_square_rational_functions():
    f2x = field_from_spec("F2(X)")
    ok, s = is_square(f2x, f2x.parse("X^2"))
    assert ok and s == f2x.parse("X")
    ok, s = is_square(f2x, f2x.parse("(X^2+1)/(X^4)"))
    assert ok and s * s == f2x.parse("(X^2+1)/(X^4)")
    assert is_square(f2x, f2x.parse("X"))[0] is False


# ---------------------------------------------------------------------------
# field axioms, spot-checked
# ---------------------------------------------------------------------------

def _random_elements(field, rng, n):
    if field.is_finite:
        return [field.element_of_code(rng.randrange(field.order())) for _ in range(n)]
    if field.spec_string() == "Q":
        return [field.parse(f"{rng.randint(-30, 30)}/{rng.randint(1, 30)}") for _ in range(n)]
    out = []
    while len(out) < n:
        num = rng.randrange(64)
        den = rng.randrange(1, 64)
        out.append(field.element((num, 1)) / field.element((den, 1)))
    return out


@pytest.mark.parametrize("spec", ["F5", "F8", "F9", "Q", "F2(X)"])
def test_field_axioms_spot_checked(spec):
    field = field_from_spec(spec)
    rng = random.Random(20240811)
    xs = _random_elements(field, rng, 12)
    for a in xs[:6]:
        for b in xs[3:9]:
            for c in xs[6:]:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
    for a in xs:
        assert a + (-a) == field.zero()
        if a:
            assert a * a.inverse() == field.one()
    char = field.characteristic()
    if char:
        acc = field.zero()
        for _ in range(char):
            acc = acc + field.one()
        assert acc == field.zero()


def test_canonical_from_int():
    for spec in ("F5", "F9"):
        f = field_from_spec(spec)
        p = f.characteristic()
        for n in range(-2 * p, 2 * p + 1):
            assert f.from_int(n) == f.from_int(n % p)


def test_field_mismatch_raises():
    f5 = field_from_spec("F5")
    f7 = field_from_spec("F7")
    with pytest.raises(FieldMismatchError):
        f5.one() + f7.one()


@pytest.mark.parametrize("op", [
    lambda a: a + 1.5, lambda a: a - 1.5, lambda a: 1.5 - a, lambda a: a * 1.5,
    lambda a: a / 1.5, lambda a: 1.5 / a])
def test_arithmetic_with_a_foreign_type_is_not_implemented(op):
    with pytest.raises(TypeError):
        op(field_from_spec("F5").one())


def test_equality_with_a_foreign_type_is_false():
    one = field_from_spec("F5").one()
    assert not one == "1"
    assert one != "1"


def test_is_square_field_mismatch():
    with pytest.raises(FieldMismatchError):
        is_square(field_from_spec("F5"), field_from_spec("F7").one())


@pytest.mark.parametrize("spec", ["F5", "F9", "Q", "F2(X)"])
def test_equal_fields_hash_equal_and_print_their_spec(spec):
    f = field_from_spec(spec)
    g = field_make(f.descriptor)
    assert f == g and hash(f) == hash(g)
    assert repr(f) == f"Field({f.spec_string()})"


def test_infinite_field_has_no_element_codes():
    with pytest.raises(InfiniteFieldError):
        field_from_spec("Q").element_of_code(0)


def test_int_coercion():
    f5 = field_from_spec("F5")
    assert f5.from_int(3) + 4 == f5.from_int(2)
    assert 2 * f5.from_int(4) == f5.from_int(3)


# ---------------------------------------------------------------------------
# element parse / format round trips
# ---------------------------------------------------------------------------

def test_element_round_trips():
    cases = {
        "F5": ["0", "1", "4"],
        "F9": ["0", "1", "w", "2w+1"],
        "Q": ["0", "-7", "3/2", "-22/7"],
        "F2(X)": ["0", "1", "X", "X^3+X+1", "(X^2+1)/(X^3+X+1)"],
    }
    for spec, strings in cases.items():
        f = field_from_spec(spec)
        for s in strings:
            assert str(f.parse(s)) == s


def test_rational_function_canonical_form():
    f2x = field_from_spec("F2(X)")
    assert str(f2x.parse("(X^2+X)/(X)")) == "X+1"
    assert f2x.parse("(X^3+X)/(X+1)") == f2x.parse("X^2+X")


def test_parse_errors():
    f5 = field_from_spec("F5")
    with pytest.raises(FieldError):
        f5.parse("w+1")
    with pytest.raises(FieldError, match="^cannot parse 'abc' as a rational$"):
        field_from_spec("Q").parse("abc")
    f2x = field_from_spec("F2(X)")
    with pytest.raises(FieldError):
        f2x.parse("X/0")
    with pytest.raises(FieldError):
        field_from_spec("G5")
    with pytest.raises(FieldError, match=r"^mixed variables in polynomial: 'w\+x'$"):
        field_from_spec("F9").parse("w+x")


def test_division_by_zero():
    f5 = field_from_spec("F5")
    with pytest.raises(ZeroDivisionError):
        f5.zero().inverse()
    Q = field_from_spec("Q")
    with pytest.raises(ZeroDivisionError):
        Q.one() / Q.zero()


def test_negative_powers():
    f5 = field_from_spec("F5")
    assert f5.from_int(2) ** -1 == f5.from_int(3)
    assert f5.from_int(2) ** -3 == f5.from_int(2)  # 1/8 = 1/3 = 2
    Q = field_from_spec("Q")
    assert Q.element(Fraction(2, 3)) ** -2 == Q.element(Fraction(9, 4))
    for f in (f5, Q):
        with pytest.raises(ZeroDivisionError):
            f.zero() ** -1


@pytest.mark.parametrize("spec, message", [("F97", "0 has no inverse in F97"),
                                            ("F256", "0 has no inverse in F2^8/x^8+x^4+x^3+x+1")])
def test_zero_has_no_inverse_in_a_table_field(spec, message):
    f = field_from_spec(spec)
    with pytest.raises(ZeroDivisionError) as err:
        f.zero().inverse()
    assert str(err.value) == message


@pytest.mark.parametrize("spec", ["F2", "F97", "F4", "F256"])
def test_element_code_out_of_range(spec):
    f = field_from_spec(spec)
    for code in (f.order(), -1):
        with pytest.raises(FieldError):
            f.element_of_code(code)


@pytest.mark.parametrize("spec, same", [("F4", "F2^2/x^2+x+1"), ("F9", "F3^2/x^2+1"),
                                        ("F7", "F7^1"), ("Q", " Q"), ("F2(X)", "F2(X)")])
def test_fields_are_interned(spec, same):
    assert field_from_spec(spec) is field_from_spec(same)


def test_equal_moduli_give_one_field():
    # a non-monic modulus, or one with coefficients outside 0..p-1, is
    # normalized before the field is interned
    for modulus in ((2, 0, 2), (4, 0, 1)):
        assert (field_make(FieldDescriptor.extension(3, 2, modulus))
                is field_from_spec("F3^2/x^2+1"))


def test_omega_input_accepted():
    f4 = field_from_spec("F4")
    assert f4.parse("ω+1") == f4.generator() + f4.one()


@pytest.mark.parametrize("spec, s", [
    ("F9", "--w"), ("F9", "-+w"), ("F9", "+-w"), ("F9", "++w"), ("F9", " - -w"),
    ("F9", "w--1"), ("F2(X)", "--X"), ("F2(X)", "(X+1)/(-+X)")])
def test_doubled_sign_is_refused(spec, s):
    # a doubled leading sign used to read as its last sign: "--w" as -w
    with pytest.raises(FieldError, match="malformed polynomial"):
        field_from_spec(spec).parse(s)


def test_doubled_sign_in_a_modulus_is_refused():
    with pytest.raises(FieldError, match="malformed polynomial"):
        field_from_spec("F3^2/--x^2+1")


def test_single_leading_sign_parses():
    f9 = field_from_spec("F9")
    w = f9.generator()
    assert f9.parse("-w") == -w and f9.parse(" - w") == -w
    assert f9.parse("+w") == w
    assert f9.parse("-w+1") == f9.one() - w
    assert field_from_spec("F3^2/-x^2-1") is f9
    assert field_from_spec("F2(X)").parse("-X") == field_from_spec("F2(X)").parse("X")


# spellings that are not how the element prints: they miss the lookup of
# printed strings and keep the polynomial parser's result or error
@pytest.mark.parametrize("spec, s, printed", [
    ("F4", "1+w", "w+1"), ("F4", " w ", "w"), ("F4", "w^1", "w"), ("F4", "w+0", "w"),
    ("F4", "3w", "w"), ("F4", "x", "w"), ("F4", "w^3", "1"), ("F4", "w+w", "0"),
    ("F9", "2w+3", "2w"), ("F9", "w - 1", "w+2"), ("F9", "w^2", "2"),
    ("F256", "w^8", "w^4+w^3+w+1"), ("F256", "w^9", "w^5+w^4+w^2+w"), ("F256", "1+w^7", "w^7+1"),
    ("F243", "w^5", "w+2"), ("F27", "W", "w"),
    ("F5", " 3 ", "3"), ("F5", "7", "2"), ("F5", "-1", "4"), ("F5", "+3", "3"), ("F5", "03", "3"),
    ("F97", "100", "3"), ("F2", "1_1", "1"),
])
def test_non_canonical_spellings_parse_as_before(spec, s, printed):
    assert str(field_from_spec(spec).parse(s)) == printed


@pytest.mark.parametrize("spec, s, message", [
    ("F4", "w+", "malformed polynomial: 'w+'"),
    ("F4", "", "empty polynomial string"),
    ("F4", "w*w", "malformed polynomial term: 'w*w'"),
    ("F5", "w", "cannot parse 'w' as an element of F5"),
    ("F5", "", "cannot parse '' as an element of F5"),
])
def test_non_canonical_spellings_fail_as_before(spec, s, message):
    with pytest.raises(FieldError) as info:
        field_from_spec(spec).parse(s)
    assert str(info.value) == message


def test_tables_are_built_without_polynomial_products(monkeypatch):
    # the package multiplies no polynomials at all, and the table build
    # reduces none either
    import endoclass.fields as fields
    assert not hasattr(fields, "_poly_mul")
    f = field_from_spec("F256")
    calls = []
    mod = fields._poly_mod

    def counting_mod(*args):
        calls.append(args)
        return mod(*args)
    monkeypatch.setattr(fields, "_poly_mod", counting_mod)
    t = fields.FieldTables(f)
    assert t.mul[2][3] == 6
    assert calls == []


def test_default_modulus_is_found_once_per_process(monkeypatch):
    import endoclass.fields as fields
    first = field_from_spec("F256")
    calls = []

    class CountingTables(fields.FieldTables):
        def __init__(self, field):
            calls.append(field)
            super().__init__(field)
    monkeypatch.setattr(fields, "FieldTables", CountingTables)
    assert field_from_spec("F256") is first
    assert calls == []


# ---------------------------------------------------------------------------
# default moduli and element strings
# ---------------------------------------------------------------------------

def first_irreducible_modulus(p, k):
    """The first monic degree-k polynomial over F_p, in code order, that
    is no product of two monic factors of lower degree."""
    monic = lambda d: [_poly_from_code(c, p, d) + (1,) for c in range(p**d)]
    reducible = {poly_mul(a, b, p)
                 for d in range(1, k // 2 + 1) for a in monic(d) for b in monic(k - d)}
    return next(m for m in monic(k) if m not in reducible)


def test_default_moduli_are_the_first_irreducible_in_code_order():
    assert len(SHORTHANDS) == 16
    for p, k in SHORTHANDS:
        modulus = first_irreducible_modulus(p, k)
        assert default_modulus(p, k) == modulus
        assert field_from_spec(f"F{p**k}").modulus == modulus
    assert _format_poly(default_modulus(2, 8), "x") == "x^8+x^4+x^3+x+1"


def test_first_use_of_a_shorthand_checks_its_modulus_once():
    # a fresh interpreter: no search for the modulus, and the table
    # build, which is the irreducibility check, runs once per field
    code = ("import endoclass.fields as f\n"
            "calls = []\n"
            "build = f.FieldTables.__init__\n"
            "f.FieldTables.__init__ = lambda t, field: calls.append(field) or build(t, field)\n"
            "f.field_from_spec('F256'); f.field_from_spec('F243')\n"
            "print(len(calls))\n")
    import endoclass.fields as fields
    src = os.path.dirname(os.path.dirname(os.path.abspath(fields.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (out.returncode, out.stdout) == (0, "2\n"), out.stderr


@pytest.mark.parametrize("spec", FINITE_SPECS + ["F2^4/x^4+x^3+x^2+x+1", "F5^1/x+2"])
def test_element_strings_match_polynomial_printing(spec):
    f = field_from_spec(spec)
    strings = f.element_strings()
    assert len(strings) == f.order()
    for code, text in enumerate(strings):
        e = f.element_of_code(code)
        assert text == _format_poly(_poly_from_code(code, f.p, f.k), "w")
        assert f.format(e) == text and str(e) == text
        assert f.parse(f.format(e)) == e
