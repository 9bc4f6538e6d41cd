"""Exact arithmetic for the supported coefficient fields.

Four kinds of field are supported:

  * prime fields F_p for primes p <= 97,
  * extension fields F_{p^k} with p^k <= 256, given by an irreducible
    degree-k modulus over F_p (elements are printed as polynomials in w),
  * the rationals Q (elements are reduced `fractions.Fraction`s),
  * the rational function field F2(X) (elements are coprime pairs of
    GF(2)[X] polynomials packed into ints, see `gf2x`).

A finite-field element is its code: the integer n in [0, q) whose
base-p digits are the element's coefficients, little-endian, so code 0
is zero, code 1 is one, and the rest follow in lexicographic
coefficient order.  All arithmetic on codes is lookup in the five
dense tables of the field (`FieldTables`: add, mul, neg, inv, square),
which both the hot loops (exhaustive scans, orbit searches) and the
`FieldElement` layer use; a difference is a sum with a negative.  The
tables are built with the field, and the build is also its validity
check: it finds a primitive element, which exists exactly when the
modulus is irreducible.  Coefficients appear only where the tables are
built and where a polynomial is parsed; elements print from one string
table per field.  `field_make` interns its handles, so the tables of a
field are built once per process.

Field spec strings: "F5", "F2^2/x^2+x+1", "Q", "F2(X)".  Prime-power
shorthands like "F4", "F8", "F9" pick the first irreducible modulus in
code order.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from math import isqrt
from typing import NamedTuple

from . import gf2x

MAX_PRIME = 97
MAX_ORDER = 256
MAX_DEGREE = 8
# the largest exponent accepted in polynomial input: element strings,
# moduli and F2(X) parts are expanded densely, so w^1000000 would
# allocate (and reduce) a million coefficients
MAX_EXPONENT = 4096
# the most digits of a number in a field spec or polynomial: the default
# limit of int() on strings, which beyond it raises advice about its settings
MAX_DIGITS = 4300

KIND_PRIME = "prime"
KIND_EXTENSION = "extension"
KIND_RATIONALS = "rationals"
KIND_RATFUNC_F2 = "rational-functions-over-F2"


class FieldError(ValueError):
    """Invalid field construction, parse failure, or misuse of a field."""


class InfiniteFieldError(FieldError):
    """A finite-field-only operation was called on an infinite field."""


class FieldMismatchError(FieldError):
    """Operands belong to different fields."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# polynomials over F_p as little-endian coefficient tuples
# ---------------------------------------------------------------------------

def _poly_trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - len(b)
        coef = a[-1] * inv_lead % p
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - coef * bi) % p
        a.pop()
    return _poly_trim(a)


def _echo(s: str, limit: int = 40) -> str:
    """repr(s) for an error message; past `limit` characters, the repr of
    the first `limit` with a count of the rest."""
    if len(s) <= limit:
        return repr(s)
    return f"{s[:limit]!r}... ({len(s) - limit:,} more characters)"


def _decimal(digits: str, what: str) -> int:
    """int(digits), for a decimal string of at most MAX_DIGITS digits."""
    if len(digits) > MAX_DIGITS:
        raise FieldError(f"{what} with {len(digits)} digits is too long to read "
                         f"(at most {MAX_DIGITS})")
    return int(digits)


def _poly_to_code(coeffs, p: int) -> int:
    code = 0
    for c in reversed(coeffs):
        code = code * p + c
    return code


_TERM_RE = re.compile(r"^(\d+)?\s*(?:([a-zA-Z])\s*(?:\^\s*(\d+))?)?$")


def _parse_poly(s: str, p: int) -> tuple[int, ...]:
    """Parse "x^2+x+1" / "2w^3-w+4" style polynomial strings mod p."""
    s = s.replace("ω", "w").strip()
    if not s:
        raise FieldError("empty polynomial string")
    # split into signed terms
    terms = []
    sign, buf = 0, ""  # sign 0: no sign read yet, so a leading term is positive
    for ch in s:
        if ch in "+-":
            if buf.strip():
                terms.append((sign or 1, buf))
            elif sign:
                # a second sign in a row, at the start ("--w") or after a term
                raise FieldError(f"malformed polynomial: {_echo(s)}")
            sign = 1 if ch == "+" else -1
            buf = ""
        else:
            buf += ch
    if not buf.strip():
        raise FieldError(f"malformed polynomial: {_echo(s)}")
    terms.append((sign or 1, buf))

    coeffs: list[int] = []
    varname = None
    for sign, term in terms:
        m = _TERM_RE.match(term.strip())
        if not m or (m.group(1) is None and m.group(2) is None):
            raise FieldError(f"malformed polynomial term: {_echo(term)}")
        coef = _decimal(m.group(1), "coefficient") if m.group(1) is not None else 1
        if m.group(2) is not None:
            if varname is None:
                varname = m.group(2)
            elif varname != m.group(2):
                raise FieldError(f"mixed variables in polynomial: {_echo(s)}")
            exp = _decimal(m.group(3), "exponent") if m.group(3) is not None else 1
            if exp > MAX_EXPONENT:
                raise FieldError(f"exponent {exp} exceeds the supported maximum {MAX_EXPONENT}")
        else:
            exp = 0
        if exp >= len(coeffs):
            coeffs.extend([0] * (exp + 1 - len(coeffs)))
        coeffs[exp] = (coeffs[exp] + sign * coef) % p
    return _poly_trim(coeffs)


def _format_poly(coeffs, var: str) -> str:
    if not any(coeffs):
        return "0"
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else str(c)
            terms.append(f"{head}{var}" if i == 1 else f"{head}{var}^{i}")
    return "+".join(terms)


# ---------------------------------------------------------------------------
# descriptors and elements
# ---------------------------------------------------------------------------

class FieldDescriptor(NamedTuple):
    """Which field: kind plus (p, k, modulus) where applicable.

    The modulus is a monic degree-k coefficient tuple over F_p,
    little-endian, irreducible (checked when `field_make` builds the
    field's tables).
    """

    kind: str
    p: int | None = None
    k: int | None = None
    modulus: tuple[int, ...] | None = None

    @staticmethod
    def prime(p: int) -> "FieldDescriptor":
        return FieldDescriptor(KIND_PRIME, p=p)

    @staticmethod
    def extension(p: int, k: int, modulus) -> "FieldDescriptor":
        return FieldDescriptor(KIND_EXTENSION, p=p, k=k, modulus=tuple(modulus))

    @staticmethod
    def rationals() -> "FieldDescriptor":
        return FieldDescriptor(KIND_RATIONALS)

    @staticmethod
    def rational_functions_f2() -> "FieldDescriptor":
        return FieldDescriptor(KIND_RATFUNC_F2)


class FieldElement:
    """A scalar tied to its owning field, in canonical reduced form."""

    __slots__ = ("field", "payload")

    def __init__(self, field: "Field", payload):
        self.field = field
        self.payload = payload

    def _rhs(self, other):
        if isinstance(other, FieldElement):
            if other.field.descriptor != self.field.descriptor:
                raise FieldMismatchError(
                    f"elements of {self.field.spec_string()} and "
                    f"{other.field.spec_string()} cannot be combined")
            return other.payload
        if isinstance(other, int):
            return self.field._from_int_payload(other)
        return None

    def __add__(self, other):
        rhs = self._rhs(other)
        if rhs is None:
            return NotImplemented
        return FieldElement(self.field, self.field._add(self.payload, rhs))

    __radd__ = __add__

    def __sub__(self, other):
        rhs = self._rhs(other)
        if rhs is None:
            return NotImplemented
        return FieldElement(self.field, self.field._add(self.payload, self.field._neg(rhs)))

    def __rsub__(self, other):
        rhs = self._rhs(other)
        if rhs is None:
            return NotImplemented
        return FieldElement(self.field, self.field._add(rhs, self.field._neg(self.payload)))

    def __mul__(self, other):
        rhs = self._rhs(other)
        if rhs is None:
            return NotImplemented
        return FieldElement(self.field, self.field._mul(self.payload, rhs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        rhs = self._rhs(other)
        if rhs is None:
            return NotImplemented
        return FieldElement(self.field, self.field._mul(self.payload, self.field._inv(rhs)))

    def __rtruediv__(self, other):
        rhs = self._rhs(other)
        if rhs is None:
            return NotImplemented
        return FieldElement(self.field, self.field._mul(rhs, self.field._inv(self.payload)))

    def __neg__(self):
        return FieldElement(self.field, self.field._neg(self.payload))

    def __pow__(self, n: int):
        if n < 0:
            base = self.field._inv(self.payload)
            n = -n
        else:
            base = self.payload
        acc = self.field._from_int_payload(1)
        while n:
            if n & 1:
                acc = self.field._mul(acc, base)
            base = self.field._mul(base, base)
            n >>= 1
        return FieldElement(self.field, acc)

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field._inv(self.payload))

    def is_zero(self) -> bool:
        return self.payload == self.field._from_int_payload(0)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return (self.field.descriptor == other.field.descriptor
                    and self.payload == other.payload)
        if isinstance(other, int):
            return self.payload == self.field._from_int_payload(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field.descriptor, self.payload))

    def __str__(self):
        return self.field.format(self)

    def __repr__(self):
        return f"{self.field.format(self)} @ {self.field.spec_string()}"


class _ElementRecord:
    """The conversions shared by the NamedTuples of field elements
    (`SParams`, `Transform`): keyed by the record's own `_fields` and
    built through `_make`, so a subclass that checks in `_make` checks
    every route."""

    __slots__ = ()

    @property
    def field(self) -> "Field":
        return self[0].field

    @classmethod
    def from_ints(cls, field: "Field", *values):
        """The record of `values`, one per field in order; ints are mapped
        into `field`, elements are kept.  A wrong count raises TypeError."""
        return cls._make(v if isinstance(v, FieldElement) else field.from_int(v) for v in values)

    def codes(self) -> tuple[int, ...]:
        return tuple(map(self.field.code_of, self))

    @classmethod
    def from_codes(cls, field: "Field", codes):
        return cls._make(map(field.element_of_code, codes))

    def to_json(self) -> dict:
        fmt = self.field.format
        return {k: fmt(v) for k, v in zip(self._fields, self)}

    @classmethod
    def from_json(cls, field: "Field", obj: dict):
        return cls._make(field.parse(str(obj[k])) for k in cls._fields)


class Field:
    """Handle exposing exact arithmetic over one fixed field."""

    descriptor: FieldDescriptor

    # payload-level ops supplied by subclasses:
    #   _add, _mul, _neg, _inv, _from_int_payload

    def __eq__(self, other):
        return isinstance(other, Field) and self.descriptor == other.descriptor

    def __hash__(self):
        return hash(self.descriptor)

    def __repr__(self):
        return f"Field({self.spec_string()})"

    # -- construction helpers -----------------------------------------------

    def element(self, payload) -> FieldElement:
        return FieldElement(self, payload)

    def zero(self) -> FieldElement:
        return FieldElement(self, self._from_int_payload(0))

    def one(self) -> FieldElement:
        return FieldElement(self, self._from_int_payload(1))

    def from_int(self, n: int) -> FieldElement:
        return FieldElement(self, self._from_int_payload(n))

    # -- structure ----------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.order() is not None

    def order(self) -> int | None:
        raise NotImplementedError

    def characteristic(self) -> int:
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError

    def parse(self, s: str) -> FieldElement:
        raise NotImplementedError

    def format(self, el: FieldElement) -> str:
        raise NotImplementedError

    # -- finite-field coding (overridden by finite kinds) --------------------
    # These raise InfiniteFieldError, the one finiteness guard: every
    # finite-only operation reaches one of them before doing any work.

    def _needs_finite(self, what: str):
        raise InfiniteFieldError(f"{what} needs a finite field, got {self.spec_string()}")

    def code_of(self, el: FieldElement) -> int:
        self._needs_finite("element codes")

    def element_of_code(self, code: int) -> FieldElement:
        self._needs_finite("element codes")

    def elements(self) -> list[FieldElement]:
        self._needs_finite("enumerating the elements")

    def tables(self) -> "FieldTables":
        self._needs_finite("lookup tables")


class FieldTables:
    """The five lookup tables of one finite field, indexed by element code:
    `add` and `mul` rows, and the `neg`, `inv` and `square` of each code.
    There is no subtraction table: a - b is add[a][neg[b]].

    Each row is built whole, as one C-level gather of an earlier row, so
    a field costs O(q) Python-level steps.  The gather is
    `perm.translate(row)`, which is row[perm[b]] for every b; while the
    tables are built, rows are bytes padded to the 256 entries that
    `translate` needs (q <= 256), and the padding is never read.
    Addition works digit by digit on the base-p codes: if e = p^j is
    the place of the top digit of a, then a + b = (a - e) + (e + b), so
    row a is row a - e gathered through row e.  Multiplication goes
    through the code-first primitive element g: row g^(i+1) is row g^i
    gathered through row g, 1/g^i = g^(-i) and (g^i)^2 = g^(2i).  The
    search for g raises FieldError when the modulus is reducible, so
    the tables exist only for a field.  The finished rows are lists of
    ints, which Python indexes faster than bytes.
    """

    __slots__ = ("q", "p", "add", "mul", "neg", "inv", "square")

    def __init__(self, field: "FiniteFieldBase"):
        q = self.q = field.order()
        p = self.p = field.characteristic()
        ident = bytes(range(256))
        add, e = [ident], 1
        while e < q:
            # row e turns digit j of b up by one, p - 1 round to 0: it
            # rotates each block of e·p codes by e
            step = e * p
            plus_e = b"".join(ident[s + e:s + step] + ident[s:s + e]
                              for s in range(0, q, step)) + ident[q:]
            add.append(plus_e)
            for a in range(e + 1, step):
                add.append(plus_e.translate(add[a - e]))
            e = step
        self.neg = [row.index(0) for row in add]
        self.add = [list(row[:q]) for row in add]

        exp, times_g = _powers_of_primitive(field, self.add)
        by_g = bytes(times_g) + ident[q:]
        mul, row, inv, square = [[0] * q] + [None] * (q - 1), ident, [None] * q, [0] * q
        for i, c in enumerate(exp):
            mul[c] = list(row[:q])
            inv[c], square[c] = exp[-i % (q - 1)], exp[2 * i % (q - 1)]
            row = by_g.translate(row)
        self.mul, self.inv, self.square = mul, inv, bytes(square)

    def square_root(self, c: int) -> int | None:
        """The enumeration-first s with s·s = c, or None: one C-level search of
        the `mul` diagonal, kept as bytes (in characteristic 2 s is unique)."""
        s = self.square.find(c)
        return s if s >= 0 else None


def _powers_of_primitive(field: "FiniteFieldBase",
                         add: list[list[int]]) -> tuple[list[int], list[int]]:
    """(powers, times_g) for the code-first generator g of the
    multiplicative group: the codes of g^0, ..., g^(q-2), and times_g[b],
    the code of g·b.  Multiplication by a candidate g is F_p-linear in
    the digits of b, so times_g is built through the `add` rows from the
    images g, wg, ..., w^(k-1)g of the digit places; w·x moves the
    digits of x up one place and turns the top digit d into d·w^k,
    which the modulus gives (F_p is F_p[x]/(x), with k = 1).

    This search is the irreducibility check of the modulus m: F_p[x]/(m)
    is a field, with a cyclic group of q - 1 units, exactly when m is
    irreducible; otherwise it has zero divisors, fewer than q - 1 units,
    and no element of order q - 1, so the search raises FieldError."""
    p, k, q = field.p, field.k, field.order()
    top = q // p
    # d·w^k = -d·(m_0 + m_1 w + ... + m_(k-1) w^(k-1)) for each digit d
    w_k = [_poly_to_code([-d * c % p for c in field.modulus[:k]], p) for d in range(p)]
    for g in range(1, q):
        times_g, image = [0], g
        for _ in range(k):
            n, row = len(times_g), add[image].__getitem__
            for _ in range(p - 1):
                times_g += map(row, times_g[-n:])
            image = add[image % top * p][w_k[image // top]]
        powers, x = [1], g
        while x != 1 and len(powers) < q - 1:
            powers.append(x)
            x = times_g[x]
        if x == 1 and len(powers) == q - 1:
            return powers, times_g
    raise FieldError(f"modulus {_format_poly(field.modulus, 'x')} is reducible over F{p}")


class FiniteFieldBase(Field):
    """F_p[x]/(modulus) for F_p and F_{p^k}; payloads are element codes.

    Every operation on codes is one lookup in `tables()`, built with
    the field (a reducible modulus raises FieldError there), printing
    one in `element_strings()`, and parsing a printed string one in its
    inverse, both built on first use.
    """

    def __init__(self, descriptor: FieldDescriptor, p: int, k: int, modulus: tuple[int, ...]):
        self.descriptor = descriptor
        self.p, self.k, self.modulus = p, k, modulus
        self._tables = FieldTables(self)
        self._strings: list[str] | None = None
        self._codes: dict[str, int] | None = None

    def order(self) -> int:
        return self.p**self.k

    def characteristic(self) -> int:
        return self.p

    def tables(self) -> FieldTables:
        return self._tables

    def element_strings(self) -> list[str]:
        """The printed form of every element, indexed by code.  Code c
        with top digit d at place j prints as the term d·w^j, then "+"
        and the string of the lower code c - d·p^j when that is not 0."""
        if self._strings is None:
            self._strings = strings = [str(c) for c in range(self.p)]
            for j in range(1, self.k):
                w, lower = ("w" if j == 1 else f"w^{j}"), strings[1:]
                for term in [w] + [f"{d}{w}" for d in range(2, self.p)]:
                    strings += [term] + [f"{term}+{s}" for s in lower]
        return self._strings

    def format(self, el):
        return self.element_strings()[el.payload]

    def parse(self, s):
        """A string spelled exactly as an element prints is read by one
        lookup; every other spelling goes to `_parse_spelling`."""
        if self._codes is None:
            self._codes = {text: code for code, text in enumerate(self.element_strings())}
        code = self._codes.get(s)
        return FieldElement(self, code) if code is not None else self._parse_spelling(s)

    def _parse_spelling(self, s: str) -> FieldElement:
        raise NotImplementedError

    def _from_int_payload(self, n):
        return n % self.p

    def _add(self, a, b):
        return self._tables.add[a][b]

    def _mul(self, a, b):
        return self._tables.mul[a][b]

    def _neg(self, a):
        return self._tables.neg[a]

    def _inv(self, a):
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in {self.spec_string()}")
        return self._tables.inv[a]

    def code_of(self, el: FieldElement) -> int:
        return el.payload

    def element_of_code(self, code: int) -> FieldElement:
        if not 0 <= code < self.order():
            raise FieldError(f"element code {code} out of range for {self.spec_string()}")
        return FieldElement(self, code)

    def elements(self) -> list[FieldElement]:
        """All q elements in code order: 0, 1, then lexicographic coefficients."""
        return [FieldElement(self, c) for c in range(self.order())]


class PrimeField(FiniteFieldBase):
    """F_p; the code of a residue is the residue."""

    def __init__(self, p: int):
        super().__init__(FieldDescriptor.prime(p), p, 1, (0, 1))

    def spec_string(self):
        return f"F{self.p}"

    def _parse_spelling(self, s):
        try:
            return self.from_int(int(s.strip()))
        except ValueError:
            raise FieldError(
                f"cannot parse {_echo(s)} as an element of {self.spec_string()}") from None


class ExtensionField(FiniteFieldBase):
    """F_{p^k} as F_p[w]/(modulus), printed as polynomials in w."""

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        super().__init__(FieldDescriptor.extension(p, k, modulus), p, k, modulus)

    def spec_string(self):
        return f"F{self.p}^{self.k}/{_format_poly(self.modulus, 'x')}"

    def generator(self) -> FieldElement:
        """The class of w, i.e. the adjoined root of the modulus."""
        return self.parse("w")

    def _parse_spelling(self, s):
        coeffs = _parse_poly(s, self.p)
        if len(coeffs) > self.k:
            coeffs = _poly_mod(coeffs, self.modulus, self.p)
        return self.element(_poly_to_code(coeffs, self.p))


class RationalField(Field):
    """Q with reduced Fraction payloads."""

    def __init__(self):
        self.descriptor = FieldDescriptor.rationals()

    def order(self):
        return None

    def characteristic(self):
        return 0

    def spec_string(self):
        return "Q"

    def _from_int_payload(self, n):
        return Fraction(n)

    def _add(self, a, b):
        return a + b

    def _mul(self, a, b):
        return a * b

    def _neg(self, a):
        return -a

    def _inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in Q")
        return 1 / a

    def parse(self, s):
        # Fraction would expand exponent notation: 1e99999999 is 10^99999999
        if "e" in s or "E" in s:
            raise FieldError(
                f"cannot parse {_echo(s)} as a rational: exponent notation is not accepted")
        try:
            return self.element(Fraction(s.strip()))
        except (ValueError, ZeroDivisionError):
            raise FieldError(f"cannot parse {_echo(s)} as a rational") from None

    def format(self, el):
        return str(el.payload)


class RationalFunctionField2(Field):
    """F2(X): coprime pairs (numerator, denominator) of packed GF(2)[X] polys."""

    def __init__(self):
        self.descriptor = FieldDescriptor.rational_functions_f2()

    def order(self):
        return None

    def characteristic(self):
        return 2

    def spec_string(self):
        return "F2(X)"

    @staticmethod
    def _reduce(num: int, den: int) -> tuple[int, int]:
        if den == 0:
            raise ZeroDivisionError("zero denominator in F2(X)")
        if num == 0:
            return (0, 1)
        g = gf2x.gcd(num, den)
        if g != 1:
            num = gf2x.divmod_(num, g)[0]
            den = gf2x.divmod_(den, g)[0]
        return (num, den)

    def from_polys(self, num: int, den: int = 1) -> FieldElement:
        return self.element(self._reduce(num, den))

    def _from_int_payload(self, n):
        return (n % 2, 1)

    def _add(self, a, b):
        return self._reduce(gf2x.mul(a[0], b[1]) ^ gf2x.mul(b[0], a[1]),
                            gf2x.mul(a[1], b[1]))

    def _mul(self, a, b):
        return self._reduce(gf2x.mul(a[0], b[0]), gf2x.mul(a[1], b[1]))

    def _neg(self, a):
        return a

    def _inv(self, a):
        if a[0] == 0:
            raise ZeroDivisionError("0 has no inverse in F2(X)")
        return (a[1], a[0])

    def parse(self, s):
        s = s.strip()
        if "/" in s:
            top, _, bot = s.partition("/")
            num = self._parse_poly_part(top)
            den = self._parse_poly_part(bot)
            if den == 0:
                raise FieldError("zero denominator in F2(X) element")
            return self.element(self._reduce(num, den))
        return self.element(self._reduce(self._parse_poly_part(s), 1))

    @staticmethod
    def _parse_poly_part(s: str) -> int:
        s = s.strip()
        if s.startswith("(") and s.endswith(")"):
            s = s[1:-1].strip()
        coeffs = _parse_poly(s, 2)
        packed = 0
        for i, c in enumerate(coeffs):
            packed |= c << i
        return packed

    def format(self, el):
        num, den = (_format_poly([(a >> i) & 1 for i in range(a.bit_length())], "X")
                    for a in el.payload)
        if el.payload[1] == 1:
            return num
        return f"({num})/({den})"


# ---------------------------------------------------------------------------
# construction and module-level operations
# ---------------------------------------------------------------------------

# the first monic irreducible modulus in code order of each shorthand F{p^k}
_DEFAULT_MODULI = {
    (2, 2): "x^2+x+1", (2, 3): "x^3+x+1", (2, 4): "x^4+x+1", (2, 5): "x^5+x^2+1",
    (2, 6): "x^6+x+1", (2, 7): "x^7+x+1", (2, 8): "x^8+x^4+x^3+x+1",
    (3, 2): "x^2+1", (3, 3): "x^3+2x+1", (3, 4): "x^4+x+2", (3, 5): "x^5+2x+1",
    (5, 2): "x^2+2", (5, 3): "x^3+x+1", (7, 2): "x^2+1", (11, 2): "x^2+1", (13, 2): "x^2+2",
}


@functools.cache
def default_modulus(p: int, k: int) -> tuple[int, ...]:
    """The modulus of the shorthand F{p^k}, for k >= 2 and p^k <= 256."""
    return _parse_poly(_DEFAULT_MODULI[p, k], p)


@functools.cache
def field_make(spec: FieldDescriptor) -> Field:
    """The field handle of a descriptor, validating every invariant.

    A finite field's lookup tables are built here, with its handle, and
    that build rejects a reducible modulus (see `FieldTables`); the
    other invariants are checked first.  Handles are interned: equal
    descriptors give the same `Field`, so a process builds each finite
    field's tables once.  A descriptor whose modulus is not reduced and
    monic maps to the handle of the normalized one.  Only valid
    descriptors are cached: an invalid one raises before anything is
    stored.
    """
    # bound p and k before _is_prime: trial division of a huge p runs for minutes
    if spec.kind in (KIND_PRIME, KIND_EXTENSION) and not isinstance(spec.p, int):
        raise FieldError("the characteristic must be an int, "
                         f"got {type(spec.p).__name__} {spec.p!r}")
    if spec.kind == KIND_PRIME:
        p = spec.p
        if p > MAX_PRIME:
            raise FieldError(f"prime fields are supported up to p = {MAX_PRIME}, got {p}")
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        return PrimeField(p)
    if spec.kind == KIND_EXTENSION:
        p, k, modulus = spec.p, spec.k, spec.modulus
        if not isinstance(k, int) or k < 1:
            raise FieldError(f"extension degree must be >= 1, got {k}")
        if k > MAX_DEGREE:
            raise FieldError(f"extension degrees are supported up to {MAX_DEGREE}, got {k}")
        if p**k > MAX_ORDER:
            raise FieldError(f"extension fields are supported up to order {MAX_ORDER}, got {p**k}")
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        modulus = _poly_trim(list(modulus))
        if len(modulus) != k + 1:
            raise FieldError(f"modulus must have degree {k}")
        if modulus[-1] != 1:
            lead_inv = pow(modulus[-1], p - 2, p)
            modulus = tuple(c * lead_inv % p for c in modulus)
        if not all(0 <= c < p for c in modulus):
            modulus = tuple(c % p for c in modulus)
        if modulus != spec.modulus:
            return field_make(FieldDescriptor.extension(p, k, modulus))
        return ExtensionField(p, k, modulus)
    if spec.kind == KIND_RATIONALS:
        return RationalField()
    if spec.kind == KIND_RATFUNC_F2:
        return RationalFunctionField2()
    raise FieldError(f"unknown field kind {spec.kind!r}")


_SPEC_RE = re.compile(r"^F(\d+)(?:\^(\d+))?(?:/(.+))?$")


def field_from_spec(s: str) -> Field:
    """Parse "F5", "F2^2/x^2+x+1", "F9", "Q" or "F2(X)" into a field."""
    s = s.strip()
    if s == "Q":
        return field_make(FieldDescriptor.rationals())
    if s == "F2(X)":
        return field_make(FieldDescriptor.rational_functions_f2())
    m = _SPEC_RE.match(s)
    if not m:
        raise FieldError(f"unrecognized field spec {_echo(s)}")
    n = _decimal(m.group(1), "field order")
    k = _decimal(m.group(2), "extension degree") if m.group(2) is not None else 1
    # bound the numbers before any arithmetic on them: primality is
    # trial division and p**k can be astronomically large
    if n > MAX_ORDER or k > MAX_DEGREE:
        raise FieldError(f"finite fields are supported up to order {MAX_ORDER} "
                         f"and extension degree {MAX_DEGREE}, got {_echo(s)}")
    if m.group(2) is not None:
        p = n
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        if k == 1 and m.group(3) is None:
            return field_make(FieldDescriptor.prime(p))
        if k < 1 or p**k > MAX_ORDER:
            raise FieldError(f"unsupported extension field order {p}^{k}")
        if m.group(3) is not None:
            modulus = _parse_poly(m.group(3), p)
        else:
            modulus = default_modulus(p, k)
        return field_make(FieldDescriptor.extension(p, k, modulus))
    if m.group(3) is not None:
        raise FieldError(f"modulus given without an extension degree in {_echo(s)}")
    if _is_prime(n):
        return field_make(FieldDescriptor.prime(n))
    # prime-power shorthand F4, F8, F9, ...: the keys of _DEFAULT_MODULI
    # are exactly the p^k <= MAX_ORDER with k >= 2
    for p, k in _DEFAULT_MODULI:
        if p**k == n:
            return field_make(FieldDescriptor.extension(p, k, default_modulus(p, k)))
    raise FieldError(f"{n} is neither prime nor a prime power")


def is_square(field: Field, t: FieldElement) -> tuple[bool, FieldElement | None]:
    """Decide t in (K)^2, with a witness s (s*s = t) when it is.

    Finite fields scan the diagonal of the `mul` table once and return
    the enumeration-first root (in characteristic 2, where squaring is
    bijective, the only one).
    Over Q a positive reduced fraction is a square iff its numerator
    and denominator are perfect squares, decided exactly by integer
    square roots for any size.  Over F2(X) both parts must be squares.
    """
    if t.field != field:
        raise FieldMismatchError("element does not belong to the given field")
    if field.is_finite:
        root = field.tables().square_root(t.payload)
        return (False, None) if root is None else (True, field.element(root))
    if isinstance(field, RationalField):
        fr: Fraction = t.payload
        if fr == 0:
            return True, field.zero()
        if fr < 0:
            return False, None
        num, den = isqrt(fr.numerator), isqrt(fr.denominator)
        if num * num == fr.numerator and den * den == fr.denominator:
            return True, field.element(Fraction(num, den))
        return False, None
    if isinstance(field, RationalFunctionField2):
        num, den = t.payload
        if num == 0:
            return True, field.zero()
        if gf2x.is_square(num) and gf2x.is_square(den):
            return True, field.element((gf2x.sqrt(num), gf2x.sqrt(den)))
        return False, None
    raise FieldError(f"is_square is not implemented for {field.spec_string()}")  # pragma: no cover
