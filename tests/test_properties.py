"""Property tests: element round trips, the GF(2)[X] helpers, the CLI's
usage-error contract and the closed-form endo-commutativity check against
its definition.

Example counts are small and the search is derandomized, so the suite
stays fast and every run checks the same examples.
"""

import contextlib
import io
import string

import pytest
from hypothesis import example, given, settings, strategies as st

from endoclass import SParams, field_from_spec, gf2x, is_endo_commutative_straight
from endoclass.cli import main

from common import FINITE_SPECS, is_endo_commutative_definitional

SETTINGS = settings(max_examples=40, deadline=None, database=None, derandomize=True)

Q = field_from_spec("Q")
F2X = field_from_spec("F2(X)")


def test_every_finite_field_is_listed():
    assert len(FINITE_SPECS) == 25 + 16  # primes up to 97, proper prime powers up to 256
    assert FINITE_SPECS[-1] == "F256"


@pytest.mark.parametrize("spec", FINITE_SPECS)
def test_parse_format_round_trip_finite(spec):
    field = field_from_spec(spec)
    for el in field.elements():
        assert field.parse(field.format(el)) == el


@SETTINGS
@given(st.fractions())
def test_parse_format_round_trip_rationals(fr):
    el = Q.element(fr)
    assert Q.parse(Q.format(el)) == el


@SETTINGS
@given(st.integers(0, 2**40), st.integers(1, 2**40))
def test_parse_format_round_trip_f2x(num, den):
    el = F2X.from_polys(num, den)
    assert F2X.parse(F2X.format(el)) == el


def monomial_listing(a, var="X"):
    """Terms of a packed GF(2)[X] polynomial, highest degree first
    ("X^3+X+1"), written out bit by bit."""
    if a == 0:
        return "0"
    terms = []
    for i in range(a.bit_length() - 1, -1, -1):
        if (a >> i) & 1:
            if i == 0:
                terms.append("1")
            elif i == 1:
                terms.append(var)
            else:
                terms.append(f"{var}^{i}")
    return "+".join(terms)


@SETTINGS
@given(st.integers(0, 2**40), st.integers(1, 2**40))
def test_f2x_format_matches_monomial_listing(num, den):
    el = F2X.from_polys(num, den)
    num, den = el.payload
    expected = (monomial_listing(num) if den == 1
                else f"({monomial_listing(num)})/({monomial_listing(den)})")
    assert F2X.format(el) == expected


def exponents(a):
    return [i for i in range(a.bit_length()) if (a >> i) & 1]


@SETTINGS
@given(st.one_of(st.integers(0, 2**8), st.integers(0, 2**200)))
def test_odd_even_split_separates_exponent_parities(a):
    odd, even = gf2x.odd_even_split(a)
    assert odd ^ even == a
    assert all(i % 2 == 1 for i in exponents(odd))
    assert all(i % 2 == 0 for i in exponents(even))
    assert gf2x.is_square(a) == (odd == 0)
    root = gf2x.sqrt(even)
    assert gf2x.mul(root, root) == even


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue()


def is_field_spec(text):
    try:
        field_from_spec(text)
    except ValueError:
        return False
    return True


spec_like = st.from_regex(r"\AF[0-9]{0,22}(\^[0-9]{0,12})?(/[a-z0-9^+\-]{0,10})?\Z") | st.text(max_size=12)


@SETTINGS
@given(spec_like.filter(lambda s: not is_field_spec(s)))
def test_malformed_field_spec_exits_2(spec):
    code, out = run_main(["fields", "--field", spec])
    assert code == 2 and out == ""


atom = st.sampled_from(["0", "1", "-1", "4", "w", "x^2", "1/0", "abc", "2^", "^3",
                        "{", "}", "null", "3.5", "", " "]) | st.text(string.printable, max_size=4)
# JSON nested past the interpreter's recursion limit, valid or not
DEEP_NESTING = ["[" * 100_000, "[" * 1000 + "]" * 1000, '{"p": ' * 3000]
malformed_tuples = (st.lists(atom, max_size=8).map(",".join)
                    | st.text(max_size=16)
                    | st.sampled_from(['{"p":"0"}', '[0,1,1,0,-1,2]', '{"p":', '{}',
                                       *DEEP_NESTING]))


@SETTINGS
@given(malformed_tuples)
@example(DEEP_NESTING[0])
@example(DEEP_NESTING[1])
@example(DEEP_NESTING[2])
def test_malformed_sparams_exits_2(text):
    code, out = run_main(["table", "--field", "F5", "--algebra", text])
    assert code in (0, 2)
    if code == 0:  # accepted only as six comma-separated elements of F5
        assert len([p for p in text.split(",") if p.strip()]) == 6
    else:
        assert out == ""


@SETTINGS
@given(st.sampled_from(["F2", "F3", "F4", "F5"]), st.data())
def test_closed_form_ec_matches_definition(spec, data):
    field = field_from_spec(spec)
    codes = data.draw(st.tuples(*[st.integers(0, field.order() - 1)] * 6))
    S = SParams.from_codes(field, codes)
    assert (is_endo_commutative_straight(S)
            == is_endo_commutative_definitional(S.to_structure_matrix()))
