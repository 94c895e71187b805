"""Exact ground-ring arithmetic.

Every coefficient in this package is an element of the ring

    Q[s, s^-1, u, u^-1, v, v^-1, w, w^-1][1/d(s)]

i.e. a Laurent polynomial in the base variable s and the spectral variables
u, v, w, divided by a polynomial d(s) in s alone.  The loop weight lives at
q = s^4, so q^(1/2) = s^2 and q^(1/4) = s are ordinary monomials and no ad
hoc square roots are ever introduced.

Representation is canonical:

* numerator: dict mapping exponent 4-tuples (e_s, e_u, e_v, e_w) to a
  rational coefficient, no zero values stored;
* denominator: dict mapping s-exponent to a rational coefficient with lowest
  exponent 0 and leading coefficient 1, coprime to the numerator's s-content;
* zero is {} / {0: 1}.

A coefficient is an int when it is integral and a Fraction otherwise; every
structure constant of the braid, twist and integrable suites is an integer,
so their arithmetic never builds a Fraction.  An int equals and hashes like
the Fraction of the same value, so with that normal form two Scalars are
equal iff their dicts are equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "Scalar",
    "Specialization",
    "NotInvertibleInRing",
    "PoleAtSpecialization",
    "ZERO",
    "ONE",
    "parse_scalar",
]

VARS = ("s", "u", "v", "w")
_SPECTRAL = VARS[1:]
_ZKEY = (0, 0, 0, 0)


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
    """Monic gcd in Q[s]."""
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


def _u_eval(p: dict, x: Fraction) -> Fraction:
    acc = 0
    for e, c in p.items():
        acc += c * x**e
    return acc


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
            base = base * base
            k >>= 1
        return out


class Scalar(_FieldOps):
    __slots__ = ("num", "den")

    def __init__(self, num=None, den=None, _canonical: bool = False):
        if num is None:
            num = {}
        elif isinstance(num, (int, Fraction)):
            num = {_ZKEY: num} if num else {}
        if den is None:
            den = {0: 1}
        if _canonical:
            self.num = num
            self.den = den
        else:
            self.num, self.den = _canonicalize(num, den)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rational(r) -> "Scalar":
        if r.__class__ is not int:
            r = _exact(Fraction(r))
        return Scalar({_ZKEY: r} if r else {}, None, _canonical=True)

    @staticmethod
    def s_power(k: int) -> "Scalar":
        return Scalar({(k, 0, 0, 0): 1}, None, _canonical=True)

    @staticmethod
    def q_power(k) -> "Scalar":
        """q^k with k a (half-)integer; q = s^4 so the s-exponent is 4k."""
        e = Fraction(k) * 4
        if e.denominator != 1:
            raise ValueError(f"q^{k} is not a monomial in s")
        return Scalar.s_power(int(e))

    @staticmethod
    def var_power(name: str, k: int) -> "Scalar":
        i = VARS.index(name)
        key = tuple(k if j == i else 0 for j in range(4))
        return Scalar({key: 1}, None, _canonical=True)

    @staticmethod
    def beta() -> "Scalar":
        """Loop weight -q - q^-1 = -s^4 - s^-4."""
        return Scalar({(4, 0, 0, 0): -1, (-4, 0, 0, 0): -1}, None, _canonical=True)

    # -- predicates ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def variables(self) -> set:
        out = set()
        for key in self.num:
            for i, e in enumerate(key):
                if e:
                    out.add(VARS[i])
        if self.den != {0: 1}:
            out.add("s")
        return out

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
            if self.den == {0: 1}:
                return Scalar(num, None, _canonical=True)
            return Scalar(num, dict(self.den))
        g = _u_gcd(self.den, other.den)
        d1r, _ = _u_divmod(self.den, g)
        d2r, _ = _u_divmod(other.den, g)
        num = _num_mul_upoly(self.num, d2r)
        for k, c in _num_mul_upoly(other.num, d1r).items():
            c2 = num.get(k, 0) + c
            if c2:
                num[k] = c2
            elif k in num:
                del num[k]
        return Scalar(num, _u_mul(self.den, d2r))

    __radd__ = __add__

    def __neg__(self):
        return Scalar({k: -c for k, c in self.num.items()}, dict(self.den), _canonical=True)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num or not other.num:
            return ZERO
        num: dict = {}
        for k1, c1 in self.num.items():
            for k2, c2 in other.num.items():
                k = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2], k1[3] + k2[3])
                c = num.get(k, 0) + c1 * c2
                if c:
                    num[k] = c
                elif k in num:
                    del num[k]
        if self.den == {0: 1} and other.den == {0: 1}:
            for c in num.values():
                if c.__class__ is not int:
                    # a product of Fractions can be integral
                    num = {k: _exact(c) for k, c in num.items()}
                    break
            return Scalar(num, None, _canonical=True)
        return Scalar(num, _u_mul(self.den, other.den))

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        if not self.num:
            raise ZeroDivisionError("inverse of zero")
        spec = {k[1:] for k in self.num}
        if len(spec) > 1:
            raise NotInvertibleInRing(
                "numerator is not a monomial in the spectral variables"
            )
        (eu, ev, ew), = spec
        smin = min(k[0] for k in self.num)
        new_den = {k[0] - smin: c for k, c in self.num.items()}
        new_num = {(e - smin, -eu, -ev, -ew): c for e, c in self.den.items()}
        return Scalar(new_num, new_den)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self.num.keys() <= {_ZKEY} and self.den == {0: 1}:
            # a rational r equals its Scalar, so both hash alike
            return hash(self.num.get(_ZKEY, 0))
        return hash((frozenset(self.num.items()), frozenset(self.den.items())))

    # -- evaluation ------------------------------------------------------------

    def subs(self, **values) -> "Scalar":
        """Substitute rational values for a subset of the variables.

        Substituting s folds the denominator into the numerator; the result
        is again a Scalar.
        """
        vals = {}
        for name, val in values.items():
            if name not in VARS:
                raise KeyError(f"unknown variable {name!r}")
            vals[VARS.index(name)] = Fraction(val)
        num: dict = {}
        for key, c in self.num.items():
            nk = list(key)
            for i, val in vals.items():
                if key[i]:
                    if val == 0 and key[i] < 0:
                        raise ZeroDivisionError("negative power of zero")
                    c = c * val ** key[i]
                    nk[i] = 0
            nk = tuple(nk)
            c2 = num.get(nk, 0) + c
            if c2:
                num[nk] = c2
            elif nk in num:
                del num[nk]
        den = self.den
        if 0 in vals and den != {0: 1}:
            dval = _u_eval(den, vals[0])
            if dval == 0:
                raise PoleAtSpecialization("denominator vanishes at substitution")
            num = {k: _div(c, dval) for k, c in num.items()}
            den = {0: 1}
            return Scalar(num, den, _canonical=True)
        return Scalar(num, dict(den))

    def eval_rational(self, s=None, u=None, v=None, w=None) -> Fraction | int:
        """Full evaluation at rational points; every present variable needs a
        value.  An integral value comes back as an int."""
        given = {"s": s, "u": u, "v": v, "w": w}
        need = self.variables()
        for name in need:
            if given[name] is None:
                raise ValueError(f"variable {name} needs a value")
        out = self.subs(**{n: given[n] for n in need})
        if out.num and set(out.num) != {_ZKEY}:
            raise AssertionError("evaluation left symbols behind")
        return out.num.get(_ZKEY, 0)

    # -- text form ------------------------------------------------------------

    def __str__(self):
        num = _num_to_text(self.num)
        if self.den == {0: 1}:
            return num
        den = _num_to_text({(e, 0, 0, 0): c for e, c in self.den.items()})
        return f"({num}) / ({den})"

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


def _num_mul_upoly(num: dict, p: dict) -> dict:
    out: dict = {}
    for key, c in num.items():
        for e, pc in p.items():
            k = (key[0] + e, key[1], key[2], key[3])
            c2 = out.get(k, 0) + c * pc
            if c2:
                out[k] = c2
            elif k in out:
                del out[k]
    return out


def _canonicalize(num: dict, den: dict) -> tuple[dict, dict]:
    num = {k: _exact(c) for k, c in num.items() if c}
    den = _u_trim(den)
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return {}, {0: 1}
    dmin = min(den)
    if dmin:
        den = {e - dmin: c for e, c in den.items()}
        num = {(k[0] - dmin, k[1], k[2], k[3]): c for k, c in num.items()}
    if len(den) == 1:
        c0 = den[0]
        if c0 != 1:
            num = {k: _div(c, c0) for k, c in num.items()}
        return num, {0: 1}
    # gcd-reduce against the s-content of the numerator
    slices: dict = {}
    for key, c in num.items():
        slices.setdefault(key[1:], {})[key[0]] = c
    g = den
    for sl in slices.values():
        smin = min(sl)
        poly = {e - smin: c for e, c in sl.items()}
        g = _u_gcd(g, poly)
        if g == {0: 1}:
            break
    if max(g) > 0:
        # den and so g and den/g have a nonzero constant term: no shift is needed
        den, _ = _u_divmod(den, g)
        num = {}
        for spec, sl in slices.items():
            smin = min(sl)
            poly = {e - smin: c for e, c in sl.items()}
            q, _ = _u_divmod(poly, g)
            for e, c in q.items():
                num[(e + smin, *spec)] = c
    lc = den[max(den)]
    if lc != 1:
        den = {e: _div(c, lc) for e, c in den.items()}
        num = {k: _div(c, lc) for k, c in num.items()}
    if len(den) == 1:
        den = {0: 1}
    return num, den


ZERO = Scalar.from_rational(0)
ONE = Scalar.from_rational(1)


# ---------------------------------------------------------------------------
# text form: sum of terms `c * s^a * u^b`, lossless round trip


def _num_to_text(num: dict) -> str:
    if not num:
        return "0"
    parts = []
    for key in sorted(num):
        c = num[key]
        factors = []
        for i, e in enumerate(key):
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
    text = text.replace("- ", "+ -").replace("+ ", "+")
    num: dict = {}
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        sign = 1
        if chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:].strip()
        coeff = Fraction(1)
        key = [0, 0, 0, 0]
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor:
                continue
            if factor[0] in "0123456789":
                coeff *= Fraction(factor)
            else:
                name, _, exp = factor.partition("^")
                key[VARS.index(name)] += int(exp) if exp else 1
        k = tuple(key)
        c = num.get(k, 0) + sign * coeff
        if c:
            num[k] = c
        elif k in num:
            del num[k]
    return num


def parse_scalar(text: str) -> Scalar:
    """Inverse of str(Scalar)."""
    text = text.strip()
    if text.startswith("(") and ") / (" in text:
        ntext, _, dtext = text.partition(") / (")
        num = _parse_poly(ntext[1:])
        dpoly = _parse_poly(dtext.rstrip()[:-1])
        den = {}
        for key, c in dpoly.items():
            if key[1:] != (0, 0, 0):
                raise ValueError("denominator must involve s only")
            den[key[0]] = c
        return Scalar(num, den)
    if text == "0":
        return ZERO
    return Scalar(_parse_poly(text))


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Specialization:
    """Target ring for coefficients.

    kinds:
      generic           keep everything symbolic in s
      cyclotomic(N)     s -> zeta_N, exact arithmetic in Q(zeta_N)
      rational(s0)      s -> a rational number, exact Fractions
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
