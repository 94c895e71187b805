"""Exact ground-ring arithmetic.

Every coefficient in this package is an element of the ring

    Q[s, s^-1, u, u^-1, v, v^-1, w, w^-1][1/d(s)]

i.e. a Laurent polynomial in the base variable s and the spectral variables
u, v, w, divided by a polynomial d(s) in s alone.  The loop weight lives at
q = s^4, so q^(1/2) = s^2 and q^(1/4) = s are ordinary monomials and no ad
hoc square roots are ever introduced.

Representation is canonical:

* numerator: dict mapping a packed exponent key to a rational coefficient,
  no zero values stored.  The key of s^a u^b v^c w^d is
  a + b*2^W + c*2^(2W) + d*2^(3W); packing is linear, so a product's key is
  the sum of its factors' keys and an s-shift adds to the key;
* denominator: dict mapping s-exponent to a rational coefficient with lowest
  exponent 0 and leading coefficient 1, coprime to the numerator's s-content;
* zero is {} / {0: 1}.

Every stored exponent e, of the numerator and of the denominator, lies in the
box -2^(W-2) <= e < 2^(W-2).  One add-and-mask tests a key, and a box it tests
has an even width, hence the asymmetry.  A product, sum or inverse whose
result leaves the box raises OverflowError, and parse_scalar ValueError, so
keys never wrap.

A product of canonical operands is canonical without a gcd over the whole
product.  As fractions.Fraction multiplies, it cancels only the cross
factors, gcd(s-content of a.num, b.den) and gcd(s-content of b.num, a.den),
then multiplies what remains; two operands with denominator 1 take no gcd.
The s-content of a numerator is the gcd of its s-slices, one per spectral
monomial, and a single-term slice is a unit, so it ends the search.

The dicts of a Scalar are never mutated once it is built, so results share
them.

A coefficient is an int when it is integral and a Fraction otherwise; every
structure constant of the braid, twist and integrable suites is an integer,
so their arithmetic never builds a Fraction.  An int equals and hashes like
the Fraction of the same value, so with that normal form two Scalars are
equal iff their dicts are equal.

At a rational point s = s0 every coefficient is a Rational, an element of Q
that plays the role CycloElement plays for Q(zeta_N): numerator and
denominator are coprime ints with a positive denominator, so zero is 0/1.
Its sum goes through the gcd of the denominators and its product cancels
only the cross factors, as fractions.Fraction does, without Fraction's
per-call dispatch over the numbers tower.  A Rational prints as n/d, or n
when d = 1, and equals and hashes like the int or Fraction of its value, so
it reads as one wherever a value surfaces.

Text form: str(x) is a sum of terms such as `3/2 * s^-4 * u^1`, written
`(num) / (den)` when the denominator is not 1, and parse_scalar reads it
back.  parse_scalar reads one regular grammar and raises ValueError for any
other text.  A factor is a rational such as 7 or 7/3, or one of s, u, v, w
with an optional integer exponent; a term is factors joined by *; a sum is
terms joined by + or -, with an optional leading sign; a scalar is a sum or
(sum) / (sum).  Spaces may stand between tokens but never inside one, so
no two tokens glue together.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

__all__ = [
    "Scalar",
    "Rational",
    "Specialization",
    "NotInvertibleInRing",
    "PoleAtSpecialization",
    "ZERO",
    "parse_scalar",
]

VARS = ("s", "u", "v", "w")
_W = 16  # bits per exponent field of a packed key
_LIMIT = 1 << (_W - 2)
_FIELD = (1 << _W) - 1
_ONES = sum(1 << (_W * i) for i in range(4))
# a key k is in the box iff k + _BIAS has bits only in the low W-1 bits of
# each field; that test is exact while every exponent has |e| < 3 * _LIMIT,
# which a sum of two keys in the box or a shift by a degree below 2*_LIMIT keeps
_BIAS = _LIMIT * _ONES
_OUT = ~((2 * _LIMIT - 1) * _ONES)
_BOX = f"an exponent leaves the box [-{_LIMIT}, {_LIMIT})"
_DEN1 = {0: 1}


class NotInvertibleInRing(ArithmeticError):
    """Inversion requested of an element that is not a unit of the ring."""


class PoleAtSpecialization(ArithmeticError):
    """The denominator vanishes at the requested specialization."""


def _exact(c):
    """The rational c as an int when it is integral."""
    if c.__class__ is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _div(a, b):
    """The exact quotient a / b of rationals: an int when it is integral
    (a bare int / int would give a float)."""
    if a.__class__ is int and b.__class__ is int and not a % b:
        return a // b
    return _exact(Fraction(a, b))


# ---------------------------------------------------------------------------
# univariate polynomials over Q, as dict[int, rational] with exponents >= 0

def _u_trim(p: dict) -> dict:
    return {e: _exact(c) for e, c in p.items() if c}


def _u_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            c = out.get(e, 0) + ca * cb
            if c:
                out[e] = c
            elif e in out:
                del out[e]
    return out


def _u_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        c2 = out.get(e, 0) - c
        if c2:
            out[e] = c2
        elif e in out:
            del out[e]
    return out


def _u_divmod(a: dict, b: dict) -> tuple[dict, dict]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = max(b)
    lb = b[db]
    rem = dict(a)
    quo: dict = {}
    while rem:
        dr = max(rem)
        if dr < db:
            break
        f = _div(rem[dr], lb)
        quo[dr - db] = f
        for eb, cb in b.items():
            e = dr - db + eb
            c = rem.get(e, 0) - f * cb
            if c:
                rem[e] = c
            elif e in rem:
                del rem[e]
    return quo, rem


def _u_gcd(a: dict, b: dict) -> dict:
    """Monic gcd in Q[s].  A coprime pair, the common case, is settled modulo
    a prime: exact long division of a far above b builds coefficients of
    about deg a bits."""
    if _p_coprime(a, b):
        return dict(_DEN1)
    a, b = dict(a), dict(b)
    while b:
        _, r = _u_divmod(a, b)
        a, b = b, r
    if not a:
        return {}
    lc = a[max(a)]
    if lc != 1:
        a = {e: _div(c, lc) for e, c in a.items()}
    return a


# ---------------------------------------------------------------------------
# coprimality modulo the prime _P, with word-sized coefficients

_P = (1 << 61) - 1


def _p_poly(a: dict) -> dict | None:
    """a over Z/_P, or None when a is 0 or _P divides a denominator or the
    leading coefficient; otherwise a common factor over Q keeps its degree
    mod _P."""
    out = {}
    for e, c in a.items():
        if not c.denominator % _P:
            return None
        c = c.numerator * pow(c.denominator, -1, _P) % _P
        if c:
            out[e] = c
    return out if out and max(out) == max(a) else None


def _p_coprime(a: dict, b: dict) -> bool:
    """True when a and b have no common factor modulo _P, and so none over Q.
    False decides nothing."""
    a, b = _p_poly(a), _p_poly(b)
    if a is None or b is None:
        return False
    while b:
        db = max(b)
        inv = pow(b[db], -1, _P)
        while a:
            da = max(a)
            if da < db:
                break
            f = a[da] * inv % _P
            for eb, cb in b.items():
                e = da - db + eb
                c = (a.get(e, 0) - f * cb) % _P
                if c:
                    a[e] = c
                else:
                    a.pop(e, None)
        a, b = b, a
    return max(a) == 0


# ---------------------------------------------------------------------------
# packed exponent keys


def _pack(exps) -> int:
    """The key of the monomial with exponent tuple (e_s, e_u, e_v, e_w)."""
    key = 0
    for i, e in enumerate(exps):
        if not -_LIMIT <= e < _LIMIT:
            raise OverflowError(_BOX)
        key += e << (_W * i)
    return key


def _unpack(key: int) -> tuple:
    """The exponent tuple (e_s, e_u, e_v, e_w) of a key in the box."""
    t = key + _BIAS
    return tuple(((t >> (_W * i)) & _FIELD) - _LIMIT for i in range(4))


def _s_exp(key: int) -> int:
    """The s-exponent of a key whose s-exponent lies in [-2*_LIMIT, 2*_LIMIT);
    key - _s_exp(key) is the key of its spectral part."""
    return ((key + 2 * _LIMIT) & _FIELD) - 2 * _LIMIT


def _boxed(num: dict) -> dict:
    """num, once every exponent of every key is checked to lie in the box."""
    for k in num:
        if (k + _BIAS) & _OUT:
            raise OverflowError(_BOX)
    return num


# ---------------------------------------------------------------------------


class _FieldOps:
    """Subtraction, division and integer powers, derived from a coefficient
    type's own +, unary -, *, inv() and _coerce (which returns
    NotImplemented for a foreign operand)."""

    __slots__ = ()

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        out = self._coerce(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out


class Rational(_FieldOps):
    """An element of Q, the coefficient at a rational point: numerator and
    denominator are coprime ints with denominator > 0, so zero is 0/1."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, value=0):
        """The value of an int, a Fraction or a Rational."""
        if not isinstance(value, (int, Fraction, Rational)):
            raise TypeError(f"cannot make a Rational of {value!r}")
        self.numerator = value.numerator
        self.denominator = value.denominator

    def __bool__(self):
        return self.numerator != 0

    def __add__(self, other):
        if other.__class__ is not Rational:
            other = Rational._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _rat_sum(self.numerator, self.denominator,
                        other.numerator, other.denominator)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not Rational:
            other = Rational._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _rat_sum(self.numerator, self.denominator,
                        -other.numerator, other.denominator)

    def __neg__(self):
        return _rat(-self.numerator, self.denominator)

    def __mul__(self, other):
        if other.__class__ is not Rational:
            other = Rational._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        na, da = self.numerator, self.denominator
        nb, db = other.numerator, other.denominator
        # the operands are in lowest terms, so only the cross factors cancel
        g = gcd(na, db)
        if g > 1:
            na //= g
            db //= g
        g = gcd(nb, da)
        if g > 1:
            nb //= g
            da //= g
        return _rat(na * nb, da * db)

    __rmul__ = __mul__

    def inv(self) -> "Rational":
        n = self.numerator
        if not n:
            raise ZeroDivisionError("inverse of zero")
        return _rat(self.denominator, n) if n > 0 else _rat(-self.denominator, -n)

    def __eq__(self, other):
        if other.__class__ is not Rational and not isinstance(other, (int, Fraction)):
            return NotImplemented
        return (self.numerator == other.numerator
                and self.denominator == other.denominator)

    def __hash__(self):
        # a Rational equals the int or Fraction of its value, so hashes alike
        n, d = self.numerator, self.denominator
        return hash(n) if d == 1 else hash(Fraction(n, d))

    def __str__(self):
        if self.denominator == 1:
            return str(self.numerator)
        return f"{self.numerator}/{self.denominator}"

    def __repr__(self):
        return f"Rational({self})"

    @staticmethod
    def _coerce(x):
        if x.__class__ is Rational:
            return x
        if isinstance(x, (int, Fraction)):
            return _rat(x.numerator, x.denominator)
        return NotImplemented


def _rat(n: int, d: int) -> Rational:
    """The Rational n / d of coprime ints with d > 0, unchecked."""
    x = object.__new__(Rational)
    x.numerator = n
    x.denominator = d
    return x


def _rat_sum(na: int, da: int, nb: int, db: int) -> Rational:
    """na/da + nb/db in lowest terms, as fractions.Fraction adds: through
    g = gcd(da, db), and then only g can share a factor with the sum."""
    g = gcd(da, db)
    if g == 1:
        return _rat(na * db + nb * da, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _rat(t, s * db)
    return _rat(t // g2, s * (db // g2))


class Scalar(_FieldOps):
    """num: a rational, or a dict {packed key: rational}; den: a dict
    {s-exponent: rational}.  Both are brought to the canonical form."""

    __slots__ = ("num", "den")

    def __init__(self, num=None, den=None):
        if num is None:
            num = {}
        elif isinstance(num, (int, Fraction)):
            num = {0: num} if num else {}
        if den is None:
            den = _DEN1
        elif not all(-_LIMIT <= e < _LIMIT for e in den):
            raise OverflowError(_BOX)
        self.num, self.den = _canonicalize(_boxed(num), den)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rational(r) -> "Scalar":
        if r.__class__ is not int:
            r = _exact(Fraction(r))
        return _make({0: r} if r else {}, _DEN1)

    @staticmethod
    def s_power(k: int) -> "Scalar":
        if not -_LIMIT <= k < _LIMIT:
            raise OverflowError(_BOX)
        return _make({k: 1}, _DEN1)

    @staticmethod
    def var_power(name: str, k: int) -> "Scalar":
        i = VARS.index(name)
        return _make({_pack(k if j == i else 0 for j in range(4)): 1}, _DEN1)

    # -- predicates ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self):
        return bool(self.num)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            num = dict(self.num)
            for k, c in other.num.items():
                c2 = num.get(k, 0) + c
                if c2:
                    num[k] = c2 if c2.__class__ is int else _exact(c2)
                elif k in num:
                    del num[k]
            if self.den == _DEN1:
                return _make(num, _DEN1)
            return _make(*_canonicalize(num, self.den))
        g = _u_gcd(self.den, other.den)
        d1r, _ = _u_divmod(self.den, g)
        d2r, _ = _u_divmod(other.den, g)
        # a key plus an s-exponent is the shifted key, so _u_mul scales a numerator
        num = _u_mul(self.num, d2r)
        for k, c in _u_mul(other.num, d1r).items():
            c2 = num.get(k, 0) + c
            if c2:
                num[k] = c2
            elif k in num:
                del num[k]
        return _make(*_canonicalize(num, _u_mul(self.den, d2r)))

    __radd__ = __add__

    def __neg__(self):
        return _make({k: -c for k, c in self.num.items()}, self.den)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num or not other.num:
            return ZERO
        a, b, den = self.num, other.num, _DEN1
        if self.den != _DEN1 or other.den != _DEN1:
            a, b, den = _cross_cancel(self, other)
        num: dict = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                c = num.get(k, 0) + c1 * c2
                if c:
                    num[k] = c
                elif k in num:
                    del num[k]
        for c in _boxed(num).values():
            if c.__class__ is not int:
                # a product of Fractions can be integral
                num = {k: _exact(c) for k, c in num.items()}
                break
        return _make(num, den)

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        if not self.num:
            raise ZeroDivisionError("inverse of zero")
        es = {k: _s_exp(k) for k in self.num}
        spec = {k - e for k, e in es.items()}
        if len(spec) > 1:
            raise NotInvertibleInRing(
                "numerator is not a monomial in the spectral variables"
            )
        spec, = spec
        smin = min(es.values())
        new_den = {es[k] - smin: c for k, c in self.num.items()}
        new_num = {e - smin - spec: c for e, c in self.den.items()}
        return _make(*_canonicalize(new_num, new_den))

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self.num.keys() <= {0} and self.den == _DEN1:
            # a rational r equals its Scalar, so both hash alike
            return hash(self.num.get(0, 0))
        return hash((frozenset(self.num.items()), frozenset(self.den.items())))

    # -- text form ------------------------------------------------------------

    def __str__(self):
        num = _num_to_text(self.num)
        if self.den == _DEN1:
            return num
        # an s-exponent below the box limit is its own key
        return f"({num}) / ({_num_to_text(self.den)})"

    def __repr__(self):
        return f"Scalar({self})"

    @staticmethod
    def _coerce(x):
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            return Scalar.from_rational(x)
        return NotImplemented


_coerce = Scalar._coerce
_new = object.__new__


def _make(num: dict, den: dict) -> Scalar:
    """The Scalar with canonical numerator num and denominator den, unchecked."""
    x = _new(Scalar)
    x.num = num
    x.den = den
    return x


def _canonicalize(num: dict, den: dict) -> tuple[dict, dict]:
    num = {k: _exact(c) for k, c in num.items() if c}
    den = _u_trim(den)
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return {}, _DEN1
    dmin = min(den)
    if dmin:
        den = {e - dmin: c for e, c in den.items()}
        num = {k - dmin: c for k, c in num.items()}
    if len(den) == 1:
        c0 = den[0]
        if c0 != 1:
            num = {k: _div(c, c0) for k, c in num.items()}
        return _boxed(num), _DEN1
    num, den = _cancel(num, den)
    lc = den[max(den)]
    if lc != 1:
        den = {e: _div(c, lc) for e, c in den.items()}
        num = {k: _div(c, lc) for k, c in num.items()}
    if len(den) == 1:
        den = _DEN1
    elif max(den) >= _LIMIT:
        raise OverflowError(_BOX)
    return _boxed(num), den


def _slices(num: dict) -> dict:
    """num split by spectral monomial: {key of a slice's lowest term: the
    slice as a polynomial in s with lowest exponent 0}."""
    by_spec: dict = {}
    for key, c in num.items():
        e = _s_exp(key)
        by_spec.setdefault(key - e, {})[e] = c
    out = {}
    for spec, sl in by_spec.items():
        smin = min(sl)
        out[spec + smin] = {e - smin: c for e, c in sl.items()} if smin else sl
    return out


def _cancel(num: dict, den: dict) -> tuple[dict, dict]:
    """num / g and den / g for g the monic gcd of den, whose lowest exponent
    is 0, and the s-content of num.  A single-term s-slice is a unit, so
    then g is 1 and no gcd is taken."""
    if len(den) == 1:
        return num, den
    slices = _slices(num)
    if any(len(poly) == 1 for poly in slices.values()):
        return num, den
    g = den
    for poly in slices.values():
        g = _u_gcd(g, poly)
        if g == _DEN1:
            return num, den
    # g divides den, so it has a nonzero constant term: no shift is needed
    out = {}
    for base, poly in slices.items():
        q, _ = _u_divmod(poly, g)
        for e, c in q.items():
            out[base + e] = c
    return out, _u_divmod(den, g)[0]


def _cross_cancel(x: Scalar, y: Scalar) -> tuple[dict, dict, dict]:
    """Numerators a, b and a canonical denominator den with x * y = a * b /
    den, as fractions.Fraction multiplies.  x and y are canonical, so only a
    factor of one operand's numerator and the other's denominator can
    cancel; once both are gone, the s-content of a * b is coprime to den."""
    a, d2 = _cancel(x.num, y.den)
    b, d1 = _cancel(y.num, x.den)
    den = _u_trim(_u_mul(d1, d2))  # a product of Fractions can be integral
    if len(den) == 1:
        return a, b, _DEN1
    if max(den) >= _LIMIT:
        raise OverflowError(_BOX)
    return a, b, den


ZERO = Scalar.from_rational(0)


# ---------------------------------------------------------------------------
# text form: the grammar of the module docstring, lossless round trip; re
# compiles each pattern on first use, so importing costs nothing

_FACTOR = r"(?:\d+(?:/\d+)?|[suvw](?:\^-?\d+)?)"
_TERM = rf"{_FACTOR}(?:\s*\*\s*{_FACTOR})*"
_SUM = rf"\s*[+-]?\s*{_TERM}(?:\s*[+-]\s*{_TERM})*\s*"
_QUOTIENT = rf"\s*\(({_SUM})\)\s*/\s*\(({_SUM})\)\s*"
# within a matched sum: each signed term, and the parts of each factor
_SIGNED_TERM = rf"([+-]?)\s*({_TERM})"
_FACTOR_PARTS = r"(\d+(?:/\d+)?)|([suvw])(?:\^(-?\d+))?"


def _num_to_text(num: dict) -> str:
    if not num:
        return "0"
    parts = []
    for exps, c in sorted((_unpack(k), c) for k, c in num.items()):
        factors = []
        for i, e in enumerate(exps):
            if e:
                factors.append(f"{VARS[i]}^{e}")
        if not factors or abs(c) != 1:
            factors.insert(0, str(abs(c)))
        term = " * ".join(factors)
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


def _parse_poly(text: str) -> dict:
    """The numerator dict of a sum that fullmatches _SUM."""
    num: dict = {}
    for sign, term in re.findall(_SIGNED_TERM, text):
        coeff = Fraction(-1 if sign == "-" else 1)
        exps = [0, 0, 0, 0]
        for rational, name, exp in re.findall(_FACTOR_PARTS, term):
            if rational:
                coeff *= Fraction(rational)
            else:
                exps[VARS.index(name)] += int(exp or 1)
        k = _pack(exps)
        c = num.get(k, 0) + coeff
        if c:
            num[k] = c
        elif k in num:
            del num[k]
    return num


def parse_scalar(text: str) -> Scalar:
    """Inverse of str(Scalar).  Malformed text, a zero denominator and an
    exponent outside the box raise ValueError."""
    try:
        quotient = re.fullmatch(_QUOTIENT, text)
        if quotient:
            den = _parse_poly(quotient[2])
            if not all(-_LIMIT <= e < _LIMIT for e in den):
                # a key with a spectral exponent lies outside the s-range
                raise ValueError("denominator must involve s only")
            return Scalar(_parse_poly(quotient[1]), den)
        if re.fullmatch(_SUM, text):
            return Scalar(_parse_poly(text))
    except (ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"cannot parse scalar {text!r}: {exc}") from None
    raise ValueError(f"cannot parse scalar {text!r}")


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Specialization:
    """Target ring for coefficients.

    kinds:
      generic           keep everything symbolic in s
      cyclotomic(N)     s -> zeta_N, exact arithmetic in Q(zeta_N)
      rational(s0)      s -> a rational number, exact Rationals
    """

    kind: str
    N: int = 0
    s0: object = None

    def __post_init__(self):
        if self.kind not in ("generic", "cyclotomic", "rational"):
            raise ValueError(f"unknown specialization kind {self.kind!r}")
        if self.kind == "cyclotomic" and self.N < 1:
            raise ValueError("cyclotomic order must be positive")
        if self.kind == "rational" and not self.s0:
            raise ValueError("rational point s0 must be nonzero")

    @staticmethod
    def generic() -> "Specialization":
        return Specialization("generic")

    @staticmethod
    def cyclotomic(N: int) -> "Specialization":
        return Specialization("cyclotomic", N=N)

    @staticmethod
    def rational(s0) -> "Specialization":
        return Specialization("rational", s0=Fraction(s0))

    @staticmethod
    def parse(text: str) -> "Specialization":
        """CLI syntax: 'generic', 'root:L' (q a primitive 2L-th root of
        unity via s = zeta_{8L}), or 'rational:s0'."""
        if text == "generic":
            return Specialization.generic()
        kind, _, arg = text.partition(":")
        if kind == "root":
            ell = int(arg)
            if ell < 1:
                raise ValueError("root order must be >= 1")
            return Specialization.cyclotomic(8 * ell)
        if kind == "rational":
            try:
                return Specialization.rational(Fraction(arg))
            except ZeroDivisionError:
                raise ValueError(f"rational point {arg!r} has a zero denominator") from None
        raise ValueError(f"cannot parse specialization {text!r}")

    def describe(self) -> str:
        if self.kind == "generic":
            return "generic"
        if self.kind == "cyclotomic":
            # s is always zeta_N itself; the report bytes keep the exponent
            return f"cyclotomic(N={self.N}, s=zeta^1)"
        return f"rational(s={self.s0})"
