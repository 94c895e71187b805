"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is a polynomial in zeta_N with rational coefficients, reduced
modulo the N-th cyclotomic polynomial Phi_N and stored sparsely as
``terms``: a dict {exponent: nonzero coefficient} with every exponent
< phi(N), the same normal form ``Scalar`` uses.  Equality is equality of
these dicts.  A coefficient is an int when it is integral and a Fraction
otherwise.

Most elements met in practice are monomials zeta^k or binomials such as
beta = -zeta^4 - zeta^-4, so a product multiplies only the nonzero terms.
Exponents >= phi(N) are folded back through the field's reduction rows
x^(phi(N)+k) mod Phi_N, which are kept sparse too: for N a power of 2,
Phi_N = x^(N/2) + 1 and every row is a single term; for N = 24 every row
has at most 2.  A product of a and b so costs about nnz(a)*nnz(b) steps.
"""

from __future__ import annotations

from fractions import Fraction

from .scalar import _FieldOps, _div, _exact, _u_divmod, _u_mul, _u_sub

__all__ = ["CycloField", "CycloElement", "cyclotomic_polynomial"]


def _cyclotomic_sparse(N: int) -> dict:
    """Phi_N as a sparse polynomial: x^N - 1 divided by the product of Phi_d
    over the proper divisors d of N (an empty product for N = 1)."""
    prod = {0: 1}
    for d in range(1, N):
        if N % d == 0:
            prod = _u_mul(prod, _cyclotomic_sparse(d))
    quo, rem = _u_divmod({0: -1, N: 1}, prod)
    assert not rem, "cyclotomic product must divide x^N - 1"
    return quo


def cyclotomic_polynomial(N: int) -> list:
    """Dense coefficient list of Phi_N (index = exponent)."""
    phi = _cyclotomic_sparse(N)
    return [phi.get(i, 0) for i in range(max(phi) + 1)]


class CycloField:
    """Q(zeta_N), interned per order."""

    _cache: dict = {}

    def __new__(cls, N: int):
        if N in cls._cache:
            return cls._cache[N]
        self = super().__new__(cls)
        self.N = N
        self._phi = _cyclotomic_sparse(N)
        self.degree = d = max(self._phi)
        # reduction rows: x^(d+k) mod Phi_N for k = 0 .. d-2, the exponents a
        # product of two reduced elements can reach
        self._rows = [_u_divmod({d + k: 1}, self._phi)[1] for k in range(d - 1)]
        self._zeta_pows = {}
        cls._cache[N] = self
        return self

    def from_rational(self, r) -> "CycloElement":
        if r.__class__ is not int:
            r = _exact(Fraction(r))
        return _element(self, {0: r} if r else {})

    def zeta(self, k: int = 1) -> "CycloElement":
        """zeta_N^k: the remainder of x^(k mod N) by Phi_N."""
        k %= self.N
        z = self._zeta_pows.get(k)
        if z is None:
            z = self._zeta_pows[k] = _element(self, _u_divmod({k: 1}, self._phi)[1])
        return z

    def __repr__(self):
        return f"CycloField({self.N})"


class CycloElement(_FieldOps):
    __slots__ = ("field", "terms")

    def __init__(self, field: CycloField, coeffs: tuple):
        """The element sum_i coeffs[i] * zeta^i, from at most phi(N) dense
        coefficients."""
        if len(coeffs) > field.degree:
            raise ValueError(f"{len(coeffs)} coefficients for a field of degree {field.degree}")
        self.field = field
        self.terms = {i: _exact(c) for i, c in enumerate(coeffs) if c}

    @property
    def coeffs(self) -> tuple:
        """The phi(N) dense coefficients, index = exponent."""
        return tuple(self.terms.get(i, 0) for i in range(self.field.degree))

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for i, c in other.terms.items():
            c2 = out.get(i, 0) + c
            if c2:
                out[i] = c2 if c2.__class__ is int else _exact(c2)
            else:
                del out[i]
        return _element(self.field, out)

    __radd__ = __add__

    def __neg__(self):
        return _element(self.field, {i: -c for i, c in self.terms.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        field = self.field
        d = field.degree
        out: dict = {}
        high: dict = {}
        for i, ai in self.terms.items():
            for j, bj in other.terms.items():
                k = i + j
                if k < d:
                    out[k] = out.get(k, 0) + ai * bj
                else:
                    high[k] = high.get(k, 0) + ai * bj
        rows = field._rows
        for k, c in high.items():
            if c:
                for i, r in rows[k - d].items():
                    out[i] = out.get(i, 0) + c * r
        return _element(field, {
            i: c if c.__class__ is int else _exact(c) for i, c in out.items() if c
        })

    __rmul__ = __mul__

    def inv(self) -> "CycloElement":
        if not self.terms:
            raise ZeroDivisionError("inverse of zero in cyclotomic field")
        # extended Euclid in Q[x] against Phi_N, tracking the cofactor of
        # self; Phi_N is irreducible, so the remainders end in a nonzero
        # constant and the cofactor already has degree < phi(N)
        r0, r1 = self.field._phi, self.terms
        s0, s1 = {}, {0: 1}
        while max(r1):
            q, r = _u_divmod(r0, r1)
            r0, r1, s0, s1 = r1, r, s1, _u_sub(s0, _u_mul(q, s1))
        c = r1[0]
        return _element(self.field, {i: _div(a, c) for i, a in s1.items()})

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.field is other.field and self.terms == other.terms

    def __hash__(self):
        terms = self.terms
        if terms.keys() <= {0}:
            # a rational r equals its element, so both hash alike
            return hash(terms.get(0, 0))
        return hash((self.field.N, frozenset(terms.items())))

    def _coerce(self, other):
        if isinstance(other, CycloElement):
            if other.field is not self.field:
                return NotImplemented
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for i, c in sorted(self.terms.items()):
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*z" if abs(c) != 1 else ("z" if c > 0 else "-z"))
            else:
                parts.append(f"{c}*z^{i}" if abs(c) != 1 else (f"z^{i}" if c > 0 else f"-z^{i}"))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"CycloElement[{self.field.N}]({self})"


def _element(field: CycloField, terms: dict) -> CycloElement:
    """The element with the given normal-form terms, which it takes over."""
    x = object.__new__(CycloElement)
    x.field = field
    x.terms = terms
    return x
