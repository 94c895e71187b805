"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are polynomials in zeta_N with rational coefficients, reduced
modulo the N-th cyclotomic polynomial, so the stored degree is always
< phi(N) and equality is coefficient-wise.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["CycloField", "CycloElement", "cyclotomic_polynomial"]

_F0 = Fraction(0)
_F1 = Fraction(1)


def _poly_divmod(a: list, b: list) -> tuple[list, list]:
    """Division in Q[x] on dense coefficient lists (index = exponent)."""
    a = list(a)
    db = len(b) - 1
    while b and b[-1] == 0:
        b = b[:-1]
        db -= 1
    if db < 0:
        raise ZeroDivisionError
    quo = [_F0] * max(len(a) - db, 1)
    while len(a) - 1 >= db and any(a):
        da = len(a) - 1
        while da >= 0 and a[da] == 0:
            da -= 1
        if da < db:
            break
        f = Fraction(a[da]) / b[db]
        quo[da - db] = f
        for i in range(db + 1):
            a[da - db + i] -= f * b[i]
        a = a[: da + 1]
        while a and a[-1] == 0:
            a.pop()
    return quo, a


def cyclotomic_polynomial(N: int) -> list:
    """Dense integer coefficient list of Phi_N, computed by dividing x^N - 1
    by the product of Phi_d over proper divisors d of N."""
    if N == 1:
        return [Fraction(-1), Fraction(1)]
    xn1 = [_F0] * (N + 1)
    xn1[0] = Fraction(-1)
    xn1[N] = _F1
    prod = [_F1]
    for d in range(1, N):
        if N % d == 0:
            phid = cyclotomic_polynomial(d)
            new = [_F0] * (len(prod) + len(phid) - 1)
            for i, a in enumerate(prod):
                if a:
                    for j, b in enumerate(phid):
                        new[i + j] += a * b
            prod = new
    quo, rem = _poly_divmod(xn1, prod)
    assert not any(rem), "cyclotomic product must divide x^N - 1"
    return quo


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
        self.degree = len(phi) - 1
        d = self.degree
        # reduction rows: x^(d+k) mod Phi_N for k = 0 .. d-2
        rows = []
        cur = [-phi[i] for i in range(d)]  # x^d
        rows.append(list(cur))
        for _ in range(d - 2):
            cur = [_F0] + cur
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
        return CycloElement(self, (_F0,) * self.degree)

    def one(self) -> "CycloElement":
        return self.from_rational(1)

    def from_rational(self, r) -> "CycloElement":
        coeffs = [_F0] * self.degree
        coeffs[0] = Fraction(r)
        return CycloElement(self, tuple(coeffs))

    def zeta(self, k: int = 1) -> "CycloElement":
        k %= self.N
        if k in self._zeta_pows:
            return self._zeta_pows[k]
        z = self.one()
        base = [_F0] * self.degree
        if self.degree == 1:
            base[0] = self.modulus[0] * -1  # zeta_1 = 1, zeta_2 = -1
            zel = CycloElement(self, tuple(base))
        else:
            base[1] = _F1
            zel = CycloElement(self, tuple(base))
        for _ in range(k):
            z = z * zel
        self._zeta_pows[k] = z
        return z

    def __repr__(self):
        return f"CycloField({self.N})"


class CycloElement:
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
            self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return CycloElement(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self.field.degree
        a, b = self.coeffs, other.coeffs
        prod = [_F0] * (2 * d - 1)
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
        return CycloElement(self.field, tuple(out))

    __rmul__ = __mul__

    def inv(self) -> "CycloElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in cyclotomic field")
        # extended Euclid in Q[x] against the modulus
        mod = list(self.field.modulus)
        r0, r1 = mod, list(self.coeffs)
        while r1 and r1[-1] == 0:
            r1.pop()
        s0, s1 = [_F0], [_F1]
        while True:
            q, r = _poly_divmod(r0, r1)
            if not any(r):
                break
            s = list(s0)
            qs1 = [_F0] * (len(q) + len(s1) - 1)
            for i, a in enumerate(q):
                if a:
                    for j, b in enumerate(s1):
                        qs1[i + j] += a * b
            if len(s) < len(qs1):
                s += [_F0] * (len(qs1) - len(s))
            for i, c in enumerate(qs1):
                s[i] -= c
            r0, r1, s0, s1 = r1, r, s1, s
        lc = r1[-1]  # r1 is a nonzero constant-or-unit gcd
        if len(r1) != 1:
            raise ZeroDivisionError("element not invertible (shares a factor)")
        inv_coeffs = [c / lc for c in s1]
        d = self.field.degree
        if len(inv_coeffs) > d:
            _, inv_coeffs = _poly_divmod(inv_coeffs, list(self.field.modulus))
        inv_coeffs += [_F0] * (d - len(inv_coeffs))
        return CycloElement(self.field, tuple(inv_coeffs[:d]))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inv()

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        out = self.field.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

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
