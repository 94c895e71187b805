"""Test-side views of ``tlcat.scalar.Scalar``.

* ``decoded``, ``variables``, ``q_power``, ``subs`` and ``eval_rational``:
  helpers the tests use to read and evaluate a Scalar.
* ``Oracle``: the same ring arithmetic with exponent 4-tuples as numerator
  keys, a reference for Scalar's packed keys.  It keeps no box of its own;
  ``boxed`` raises OverflowError where Scalar must.
"""

from fractions import Fraction

from tlcat.scalar import (
    VARS,
    NotInvertibleInRing,
    PoleAtSpecialization,
    Scalar,
    _LIMIT,
    _div,
    _exact,
    _pack,
    _u_divmod,
    _u_gcd,
    _u_mul,
    _u_trim,
    _unpack,
)

ZKEY = (0, 0, 0, 0)


def decoded(x: Scalar) -> dict:
    """The numerator of x keyed by exponent tuples (e_s, e_u, e_v, e_w)."""
    return {_unpack(k): c for k, c in x.num.items()}


def from_tuples(num: dict, den: dict | None = None) -> Scalar:
    return Scalar({_pack(k): c for k, c in num.items()}, den)


def q_power(k) -> Scalar:
    """q^k with k a (half-)integer; q = s^4 so the s-exponent is 4k."""
    e = Fraction(k) * 4
    if e.denominator != 1:
        raise ValueError(f"q^{k} is not a monomial in s")
    return Scalar.s_power(int(e))


def variables(x: Scalar) -> set:
    out = {VARS[i] for key in decoded(x) for i, e in enumerate(key) if e}
    if x.den != {0: 1}:
        out.add("s")
    return out


def subs(x: Scalar, **values) -> Scalar:
    """Substitute rational values for a subset of the variables; substituting
    s folds the denominator into the numerator."""
    vals = {}
    for name, val in values.items():
        if name not in VARS:
            raise KeyError(f"unknown variable {name!r}")
        vals[VARS.index(name)] = Fraction(val)
    num: dict = {}
    for key, c in decoded(x).items():
        nk = list(key)
        for i, val in vals.items():
            if key[i]:
                if val == 0 and key[i] < 0:
                    raise ZeroDivisionError("negative power of zero")
                c = c * val ** key[i]
                nk[i] = 0
        nk = tuple(nk)
        num[nk] = num.get(nk, 0) + c
    den = x.den
    if 0 in vals and den != {0: 1}:
        dval = sum(c * vals[0] ** e for e, c in den.items())
        if dval == 0:
            raise PoleAtSpecialization("denominator vanishes at substitution")
        num = {k: _div(c, dval) for k, c in num.items()}
        den = None
    return from_tuples(num, den)


def eval_rational(x: Scalar, s=None, u=None, v=None, w=None):
    """Full evaluation at rational points; every present variable needs a
    value.  An integral value comes back as an int."""
    given = {"s": s, "u": u, "v": v, "w": w}
    need = variables(x)
    for name in need:
        if given[name] is None:
            raise ValueError(f"variable {name} needs a value")
    out = decoded(subs(x, **{n: given[n] for n in need}))
    if out.keys() - {ZKEY}:
        raise AssertionError("evaluation left symbols behind")
    return out.get(ZKEY, 0)


# -- the tuple-key oracle ------------------------------------------------------


class Oracle:
    """num: {exponent 4-tuple: rational}, den: {s-exponent: rational}, in the
    canonical form of Scalar (see ``canonical``)."""

    def __init__(self, num: dict, den: dict | None = None):
        self.num, self.den = canonical(num, {0: 1} if den is None else den)

    def __add__(self, other):
        if self.den == other.den:
            num = dict(self.num)
            for k, c in other.num.items():
                num[k] = num.get(k, 0) + c
            return Oracle(num, self.den)
        g = _u_gcd(self.den, other.den)
        d1r, _ = _u_divmod(self.den, g)
        d2r, _ = _u_divmod(other.den, g)
        num = _mul_upoly(self.num, d2r)
        for k, c in _mul_upoly(other.num, d1r).items():
            num[k] = num.get(k, 0) + c
        return Oracle(num, _u_mul(self.den, d2r))

    def __neg__(self):
        return Oracle({k: -c for k, c in self.num.items()}, self.den)

    def __mul__(self, other):
        num: dict = {}
        for k1, c1 in self.num.items():
            for k2, c2 in other.num.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                num[k] = num.get(k, 0) + c1 * c2
        return Oracle(num, _u_mul(self.den, other.den))

    def inv(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero")
        spec = {k[1:] for k in self.num}
        if len(spec) > 1:
            raise NotInvertibleInRing("numerator is not a spectral monomial")
        (eu, ev, ew), = spec
        smin = min(k[0] for k in self.num)
        return Oracle({(e - smin, -eu, -ev, -ew): c for e, c in self.den.items()},
                      {k[0] - smin: c for k, c in self.num.items()})

    def rational(self):
        """The rational value, or None when self is not rational."""
        if self.num.keys() <= {ZKEY} and self.den == {0: 1}:
            return self.num.get(ZKEY, 0)
        return None

    def __str__(self):
        if self.den == {0: 1}:
            return _text(self.num)
        return f"({_text(self.num)}) / ({_text({(e, 0, 0, 0): c for e, c in self.den.items()})})"


def boxed(x: Oracle) -> Oracle:
    """x, or OverflowError when a stored exponent leaves Scalar's box."""
    exps = [e for k in x.num for e in k] + list(x.den)
    if any(not -_LIMIT <= e < _LIMIT for e in exps):
        raise OverflowError("outside the box")
    return x


def _mul_upoly(num: dict, p: dict) -> dict:
    out: dict = {}
    for key, c in num.items():
        for e, pc in p.items():
            k = (key[0] + e, *key[1:])
            out[k] = out.get(k, 0) + c * pc
    return out


def canonical(num: dict, den: dict) -> tuple[dict, dict]:
    """Lowest denominator exponent 0, leading coefficient 1, coprime to the
    s-content of the numerator; integral coefficients as ints."""
    num = {k: _exact(c) for k, c in num.items() if c}
    den = _u_trim(den)
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return {}, {0: 1}
    dmin = min(den)
    den = {e - dmin: c for e, c in den.items()}
    num = {(k[0] - dmin, *k[1:]): c for k, c in num.items()}
    slices: dict = {}
    for key, c in num.items():
        slices.setdefault(key[1:], {})[key[0]] = c
    g = den
    for sl in slices.values():
        smin = min(sl)
        g = _u_gcd(g, {e - smin: c for e, c in sl.items()})
    den, _ = _u_divmod(den, g)
    num = {}
    for spec, sl in slices.items():
        smin = min(sl)
        q, _ = _u_divmod({e - smin: c for e, c in sl.items()}, g)
        for e, c in q.items():
            num[(e + smin, *spec)] = c
    lc = den[max(den)]
    return ({k: _div(c, lc) for k, c in num.items()},
            {e: _div(c, lc) for e, c in den.items()})


def _text(num: dict) -> str:
    if not num:
        return "0"
    parts = []
    for key in sorted(num):
        c = num[key]
        factors = [f"{VARS[i]}^{e}" for i, e in enumerate(key) if e]
        if not factors or abs(c) != 1:
            factors.insert(0, str(abs(c)))
        term = " * ".join(factors)
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)
