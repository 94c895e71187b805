"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are polynomials in zeta_N with rational coefficients, reduced
modulo the N-th cyclotomic polynomial, so the stored degree is always
< phi(N) and equality is coefficient-wise.  A coefficient is an int when
it is integral and a Fraction otherwise, as in ``Scalar``.
"""

from __future__ import annotations

from fractions import Fraction

from .scalar import FieldOps, _div, _exact, _u_divmod, _u_mul, _u_sub

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
        phi = cyclotomic_polynomial(N)
        self.modulus = tuple(phi)
        self._phi = {i: c for i, c in enumerate(phi) if c}
        self.degree = len(phi) - 1
        d = self.degree
        # reduction rows: x^(d+k) mod Phi_N for k = 0 .. d-2
        rows = []
        cur = [-phi[i] for i in range(d)]  # x^d
        rows.append(list(cur))
        for _ in range(d - 2):
            cur = [0] + cur
            top = cur.pop()
            if top:
                for i in range(d):
                    cur[i] -= top * phi[i]
            rows.append(list(cur))
        self._red = [tuple(r) for r in rows]
        self._zeta_pows = {}
        cls._cache[N] = self
        return self

    def zero(self) -> "CycloElement":
        return CycloElement(self, (0,) * self.degree)

    def one(self) -> "CycloElement":
        return self.from_rational(1)

    def from_rational(self, r) -> "CycloElement":
        coeffs = [0] * self.degree
        coeffs[0] = r if r.__class__ is int else _exact(Fraction(r))
        return CycloElement(self, tuple(coeffs))

    def zeta(self, k: int = 1) -> "CycloElement":
        k %= self.N
        if k in self._zeta_pows:
            return self._zeta_pows[k]
        z = self.one()
        base = [0] * self.degree
        if self.degree == 1:
            base[0] = self.modulus[0] * -1  # zeta_1 = 1, zeta_2 = -1
            zel = CycloElement(self, tuple(base))
        else:
            base[1] = 1
            zel = CycloElement(self, tuple(base))
        for _ in range(k):
            z = z * zel
        self._zeta_pows[k] = z
        return z

    def __repr__(self):
        return f"CycloField({self.N})"


def _ints(coeffs) -> tuple:
    """The coefficients as a tuple, each integral Fraction turned into an int."""
    return tuple(c if c.__class__ is int else _exact(c) for c in coeffs)


class CycloElement(FieldOps):
    __slots__ = ("field", "coeffs")

    def __init__(self, field: CycloField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycloElement(
            self.field, _ints(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return CycloElement(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self.field.degree
        a, b = self.coeffs, other.coeffs
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        out = prod[:d]
        red = self.field._red
        for k in range(d, 2 * d - 1):
            c = prod[k]
            if c:
                row = red[k - d]
                for i in range(d):
                    out[i] += c * row[i]
        return CycloElement(self.field, _ints(out))

    __rmul__ = __mul__

    def inv(self) -> "CycloElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in cyclotomic field")
        # extended Euclid in Q[x] against Phi_N, tracking the cofactor of
        # self; Phi_N is irreducible, so the remainders end in a nonzero
        # constant and the cofactor already has degree < phi(N)
        r0, r1 = self.field._phi, {i: c for i, c in enumerate(self.coeffs) if c}
        s0, s1 = {}, {0: 1}
        while max(r1):
            q, r = _u_divmod(r0, r1)
            r0, r1, s0, s1 = r1, r, s1, _u_sub(s0, _u_mul(q, s1))
        c = r1[0]
        return CycloElement(
            self.field, tuple(_div(s1.get(i, 0), c) for i in range(self.field.degree))
        )

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.N, self.coeffs))

    def _coerce(self, other):
        if isinstance(other, CycloElement):
            if other.field is not self.field:
                return NotImplemented
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*z" if abs(c) != 1 else ("z" if c > 0 else "-z"))
            else:
                parts.append(f"{c}*z^{i}" if abs(c) != 1 else (f"z^{i}" if c > 0 else f"-z^{i}"))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"CycloElement[{self.field.N}]({self})"
