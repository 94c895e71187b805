"""Fusion products of modules as explicit induced modules.

M x_f N over TL_{m+n} is realized on raw vectors d (x) (x (x) y) with d a
diagram of End(m+n) and x, y basis elements of the factor modules.  The
raw index is d * pairs + p, with pairs = dim(M)*dim(N) and the pair
p = x * dim(N) + y.  The balanced-tensor relations

    (d o g^) (x) (x (x) y)  -  d (x) (g.(x (x) y))

for g running over the embedded generators e_i(m) -> e_i(m+n) and
e_j(n) -> e_{m+j}(m+n) span the modded-out subspace (any product of
generators telescopes into such rows).  A relation row has a handful of
nonzeros among the Catalan(m+n)*dim(M)*dim(N) raw coordinates, so it is
built as a sparse dict {raw index: coefficient}; ``linalg.rref`` inserts
the rows one at a time, each reduced only by the pivot rows it meets, and
its reduced form yields the quotient, whose basis is the set of non-pivot
raw coordinates.

A linear map on the pairs is a pair map, the Kronecker product of two
factor maps built once by ``_pair_map``: e_i (x) 1 and 1 (x) e_j give
the relation rows, and c_m^-1 (x) c_n^-1 the twist route below.

End(m+n) acts on the diagram legs through ``legs``, the regular module
``RegularModule(m+n)``, whose basis and index the relation rows read too
(they glue with ``Diagram.compose`` directly).  A column on the quotient
is a leg's column under that action, tensored with the vector's pair and
taken to free coordinates by ``_reduce``.  The induced action is the legs'
left action; it is the module's ``act_on_element``, so ``standard.act``
builds its matrices, and a fused module can be a factor of another.  Both
monodromy routes are the legs' right action: the double braiding
eta_{n,m} o eta_{m,n}, and the twist-ratio route c_{m+n} with, before
reducing, the pair sent through the pair map of c_m^-1 (x) c_n^-1; the
two routes agree only because the quotient is the balanced tensor product.
Both structural morphisms are single words of elementary crossings
(``braid.double_braiding`` and ``twist.twist_element``), so building one
costs a crossing times a dense morphism per letter, never a dense times a
dense product.  Everything
downstream - the central-element spectrum, Jordan data at roots of unity -
is arithmetic on sparse-row matrices (``linalg``) over the exact
coefficient field of the spec, resolved by ``morphism.domain_for``: Q(s)
for a generic spec, so a generic decomposition holds for generic s and
not just at one point; Q at an explicit rational point; Q(zeta_N) at a
root of unity.
"""

from __future__ import annotations

from fractions import Fraction

from .braid import double_braiding
from .diagram import e_diagram
from .linalg import mat_mul, mat_shift, rank, rref
from .morphism import CoeffDomain, Morphism, domain_for, e
from .report import VerificationReport
from .scalar import Specialization
from .standard import RegularModule, StandardModule, _rows, act, standard_dimension
from .twist import gamma_eigenvalue, gamma_exponent, twist_element, twist_inverse

__all__ = [
    "FusedModule",
    "fusion_summands",
    "fusion_decomposition_generic",
    "monodromy_eigenvalue",
    "jordan_type",
    "AmbiguousEigenvalue",
    "EigenvalueMismatch",
    "generic_rational_spec",
    "expected_summands",
    "verify_root_examples",
    "verify_fusion_suite",
]


class AmbiguousEigenvalue(ArithmeticError):
    """Two expected central-element eigenvalues collide at the chosen point."""


class EigenvalueMismatch(ValueError):
    """jordan_type was asked about a value that is not an eigenvalue."""


_GENERIC_POINTS = [
    Fraction(5, 3),
    Fraction(7, 4),
    Fraction(9, 5),
    Fraction(11, 7),
    Fraction(13, 8),
]


def generic_rational_spec(seed: int = 0) -> Specialization:
    """A fixed rational point s0, not a root of unity, for pointwise runs
    (seed picks one of five).  A generic spec never maps to it: generic
    fusion computes over Q(s)."""
    return Specialization.rational(_GENERIC_POINTS[seed % len(_GENERIC_POINTS)])


def monodromy_eigenvalue(k1: int, k2: int, k: int, dom: CoeffDomain):
    """mu_{k1,k2,k} = q^{k(k/2+1) - k1(k1/2+1) - k2(k2/2+1)}."""
    return dom.s_power(gamma_exponent(k) - gamma_exponent(k1) - gamma_exponent(k2))


def expected_summands(k1: int, k2: int) -> list:
    return list(range(abs(k1 - k2), k1 + k2 + 1, 2))


def _pair_map(left: list, right: list) -> list:
    """The Kronecker product of two factor maps, each a list of the images
    {index: coefficient} of its module's basis elements: entry
    x * len(right) + y is the image of x (x) y, numbered the same way."""
    width = len(right)
    return [{xj * width + yj: cl * cr for xj, cl in left[x].items() for yj, cr in right[y].items()}
            for x in range(len(left)) for y in range(width)]


def _images(f: Morphism, module) -> list:
    """The factor map of f on module: the images of its basis elements."""
    return [module.act_on_element(f, v) for v in module.basis]


class FusedModule:
    """left x_f right, a module over TL_n with n = left.n + right.n like any
    other: its basis is the free raw coordinates of the quotient, and
    ``act`` builds its action matrices.  Either factor may itself be fused."""

    def __init__(self, left, right):
        if left.dom != right.dom:
            raise ValueError("factor modules live over different coefficient domains")
        self.left = left
        self.right = right
        self.dom = left.dom
        self.n = left.n + right.n
        self.k = None
        self.legs = RegularModule(self.n, self.dom)
        self.pairs = left.dim * right.dim
        self.raw_dim = self.legs.dim * self.pairs
        self._build_quotient()

    def _build_quotient(self):
        dom, left, right = self.dom, self.left, self.right
        m, pairs = left.n, self.pairs
        one_l, one_r = ([{x: dom.one} for x in range(mod.dim)] for mod in (left, right))
        # e_i (x) 1 on the left factor, then 1 (x) e_j on the right one
        gens = [(e_diagram(i, self.n), _pair_map(_images(e(i, m, dom), left), one_r))
                for i in range(1, m)]
        gens += [(e_diagram(m + j, self.n), _pair_map(one_l, _images(e(j, right.n, dom), right)))
                 for j in range(1, right.n)]
        dindex = self.legs._index
        rows = []
        for ghat, pair_map in gens:
            for di, d in enumerate(self.legs.basis):
                dg, loops = d.compose(ghat)
                top, base = dindex[dg] * pairs, di * pairs
                cg = dom.beta_power(loops) if loops else dom.one
                for p, image in enumerate(pair_map):
                    row = {top + p: cg}
                    for q, c in image.items():
                        k = base + q
                        row[k] = row[k] - c if k in row else -c
                    if any(row.values()):
                        rows.append(row)
        red, pivots = rref(rows, self.raw_dim)
        pivset = set(pivots)
        self.basis = [i for i in range(self.raw_dim) if i not in pivset]
        self._free_pos = {f: i for i, f in enumerate(self.basis)}
        self.dim = len(self.basis)
        # a reduced row is zero in every other pivot column, so a pivot
        # coordinate is minus its row on the free coordinates
        self._pivot_image = {p: {self._free_pos[j]: x for j, x in row.items() if j != p}
                             for row, p in zip(red, pivots)}

    def _reduce(self, vec: dict) -> dict:
        """Canonical residue of a raw vector, as {free coordinate: nonzero
        coefficient}."""
        out: dict = {}
        for j, c in vec.items():
            f = self._free_pos.get(j)
            if f is not None:
                v = out.get(f)
                out[f] = c if v is None else v + c
            elif c:
                for f, x in self._pivot_image[j].items():
                    v = out.get(f)
                    out[f] = -(c * x) if v is None else v - c * x
        return {f: v for f, v in out.items() if v}

    def act_on_element(self, h: Morphism, b: int) -> dict:
        """Column of the induced left action of h on the basis vector b (a
        free raw coordinate), as index in this module's basis -> coefficient."""
        di, p = divmod(b, self.pairs)
        column = self.legs.act_on_element(h, self.legs.basis[di])
        return self._reduce({i * self.pairs + p: c for i, c in column.items()})

    def _matrix(self, h: Morphism, pair_map=None) -> list:
        """Sparse rows, on the quotient, of the right action of h on the
        diagram leg, followed by pair_map on the factors when given."""
        legs, pairs = self.legs, self.pairs
        columns = []
        for b in self.basis:
            di, p = divmod(b, pairs)
            column = legs.right_act_on_element(h, legs.basis[di])
            if pair_map is None:
                raw = {i * pairs + p: c for i, c in column.items()}
            else:
                raw = {i * pairs + q: c * x for i, c in column.items() for q, x in pair_map[p].items()}
            columns.append(self._reduce(raw))
        return _rows(columns, self.dim)

    def monodromy_matrix(self, route: str = "braiding") -> list:
        """The double braiding on the fused module.

        route 'braiding': the right action of eta_{n,m} o eta_{m,n} on
        the diagram leg.
        route 'twist': the right action of c_{m+n} on the leg, then
        the inverse twists c_m^-1 (x) c_n^-1 acting through the factor
        modules.
        """
        dom = self.dom
        if route == "braiding":
            return self._matrix(double_braiding(self.left.n, self.right.n, dom))
        if route == "twist":
            pair_map = _pair_map(_images(twist_inverse(self.left.n, dom), self.left),
                                 _images(twist_inverse(self.right.n, dom), self.right))
            return self._matrix(twist_element(self.n, dom), pair_map)
        raise ValueError(f"unknown monodromy route {route!r}")

    def verify_representation(self) -> VerificationReport:
        """Defining relations of TL_n hold on the induced action."""
        rep = VerificationReport("fusion.representation")
        dom = self.dom
        mats = {i: act(e(i, self.n, dom), self) for i in range(1, self.n)}
        beta = dom.beta
        for i, mi in mats.items():
            sq = mat_mul(mi, mi)
            scaled = [{j: beta * x for j, x in row.items() if beta} for row in mi]
            rep.check("e_i^2 = beta e_i", {"i": i, "dim": self.dim}, sq, scaled)
            for j, mj in mats.items():
                if abs(i - j) == 1:
                    rep.check("e_i e_j e_i = e_i", {"i": i, "j": j},
                              mat_mul(mat_mul(mi, mj), mi), mi)
                elif j > i + 1:
                    rep.check("far commutation", {"i": i, "j": j},
                              mat_mul(mi, mj), mat_mul(mj, mi))
        return rep

    def __repr__(self):
        return (
            f"FusedModule({self.left!r} x_f {self.right!r}, dim={self.dim}, "
            f"spec={self.dom.spec.describe()})"
        )


def fusion_summands(fused: FusedModule) -> dict:
    """Multiset {k: multiplicity} of the summands S_{N,k} of a fusion
    product, read off the spectrum of c_N: at the k of the generic fusion
    rule for two standard factors, else at every k <= N with N - k even."""
    dom = fused.dom
    k1, k2 = fused.left.k, fused.right.k
    cmat = act(twist_element(fused.n, dom), fused)
    ks = range(fused.n % 2, fused.n + 1, 2)
    expected = list(ks) if None in (k1, k2) else [k for k in expected_summands(k1, k2) if k in ks]
    gammas = {k: gamma_eigenvalue(k, dom) for k in expected}
    if len(set(gammas.values())) != len(gammas):
        raise AmbiguousEigenvalue(
            f"central eigenvalues collide at {dom.spec.describe()}"
        )
    found = {}
    total = 0
    for k in expected:
        shifted = mat_shift(cmat, gammas[k])
        eigdim = fused.dim - rank(shifted, fused.dim)
        if eigdim:
            sk = standard_dimension(fused.n, k)
            if eigdim % sk:
                raise AmbiguousEigenvalue(
                    f"eigenspace of gamma_{k} has dimension {eigdim}, "
                    f"not a multiple of dim S_{fused.n},{k} = {sk}"
                )
            found[k] = eigdim // sk
        total += eigdim
    if total != fused.dim:
        raise AmbiguousEigenvalue(
            "central element has spectrum outside the expected summands"
        )
    return found


def fusion_decomposition_generic(
    n1: int, k1: int, n2: int, k2: int, spec: Specialization | None = None
):
    """The fusion product S_{n1,k1} x_f S_{n2,k2} over the domain of spec
    (Q(s) when absent), and the multiset of its summand labels k."""
    dom = domain_for(spec or Specialization.generic())
    fused = FusedModule(StandardModule(n1, k1, dom), StandardModule(n2, k2, dom))
    return fused, fusion_summands(fused)


def jordan_type(mat: list, lam) -> tuple:
    """Jordan block sizes of mat at eigenvalue lam, weakly decreasing,
    via ranks of powers of (mat - lam): with r_j the rank of the j-th
    power and r_0 = n, r_{j-1} - r_j blocks have size >= j."""
    n = len(mat)
    shifted = mat_shift(mat, lam)
    cur, r_prev = shifted, n
    blocks = [0] * n
    while True:
        r = rank(cur, n)
        for b in range(r_prev - r):
            blocks[b] += 1
        if r == r_prev or r == 0:
            break
        r_prev = r
        cur = mat_mul(cur, shifted)
    if r == n:
        raise EigenvalueMismatch("value is not an eigenvalue of the matrix")
    return tuple(b for b in blocks if b)


# The worked root-of-unity examples: name, order L of s = zeta_L, factor
# modules, fused dimension, the monodromy eigenvalue as a power of s, and
# its Jordan type.
_ROOT_EXAMPLES = (
    # q a primitive third root of unity: S_{2,2} x_f S_{1,1} is a
    # three-dimensional indecomposable, and its monodromy has Jordan type
    # (2, 1) at mu_{2,1,3} = q^2.
    ("P_3", 12, ((StandardModule, 2, 2), (StandardModule, 1, 1)), 3, 8, (2, 1)),
    # q = i: End(2) x_f End(2) is fourteen-dimensional and the monodromy is
    # a single unipotent with Jordan type (3, 3, 2, 2, 1, 1, 1, 1).
    ("regular x regular", 16, ((RegularModule, 2), (RegularModule, 2)), 14, 0,
     (3, 3, 2, 2, 1, 1, 1, 1)),
)


def verify_root_examples() -> VerificationReport:
    """The two worked root-of-unity fusion products with non-semisimple
    monodromy, checked against their exact Jordan structure."""
    rep = VerificationReport("fusion.roots")
    for name, order, factors, dim, mu_exponent, expected in _ROOT_EXAMPLES:
        dom = domain_for(Specialization.cyclotomic(order))
        fused = FusedModule(*(cls(*args, dom) for cls, *args in factors))
        params = {"spec": dom.spec.describe()}
        rep.add(f"{name} dimension", params, fused.dim == dim, {"dim": fused.dim})
        mono = fused.monodromy_matrix("braiding")
        rep.check("double braiding equals the twist-ratio route", params, mono,
                  fused.monodromy_matrix("twist"))
        try:
            blocks = jordan_type(mono, dom.s_power(mu_exponent))
        except EigenvalueMismatch as exc:
            rep.add("monodromy jordan type", params, False, {"error": str(exc)})
        else:
            rep.add("monodromy jordan type", params, blocks == expected,
                    {"blocks": list(blocks)})
    return rep


def _annihilating_product(mono: list, values: list) -> bool:
    """Whether prod_v (mono - v) vanishes, i.e. mono is semisimple with
    spectrum inside the given values."""
    if not values:
        return not mono
    acc = mat_shift(mono, values[0])
    for v in values[1:]:
        acc = mat_mul(acc, mat_shift(mono, v))
    return not any(acc)


def verify_fusion_suite(
    max_total: int = 6, spec: Specialization | None = None, seed: int = 0
) -> VerificationReport:
    """Decomposition, monodromy eigenvalues, and route agreement for all
    fusion products of standard modules with n1 + n2 <= max_total, over
    the domain of spec (Q(s) when absent); at a root of unity, the worked
    non-semisimple examples instead.  seed changes nothing: it is accepted
    for callers that still pass it."""
    rep = VerificationReport("fusion")
    dom = domain_for(spec or Specialization.generic())
    if dom.spec.kind == "cyclotomic":
        fused = FusedModule(StandardModule(2, 2, dom), StandardModule(1, 1, dom))
        rep.extend(fused.verify_representation())
        rep.check("double braiding equals the twist-ratio route",
                  {"spec": dom.spec.describe(), "modules": "S_{2,2} x S_{1,1}"},
                  fused.monodromy_matrix("braiding"),
                  fused.monodromy_matrix("twist"))
        rep.extend(verify_root_examples())
        return rep

    rep.add("mu_{2,1,3} = q^2", {"spec": dom.spec.describe()},
            monodromy_eigenvalue(2, 1, 3, dom) == dom.s_power(8), None)
    for total in range(2, max_total + 1):
        for n1 in range(1, total):
            n2 = total - n1
            for k1 in range(n1 % 2, n1 + 1, 2):
                for k2 in range(n2 % 2, n2 + 1, 2):
                    params = {"n1": n1, "k1": k1, "n2": n2, "k2": k2}
                    try:
                        fused, found = fusion_decomposition_generic(
                            n1, k1, n2, k2, dom.spec)
                    except AmbiguousEigenvalue as exc:
                        rep.add("fusion decomposition", params, False,
                                {"error": str(exc)})
                        continue
                    # generic fusion rule: every k in |k1-k2| .. k1+k2 once
                    rule = {k: 1 for k in expected_summands(k1, k2)}
                    ok = found == rule and fused.dim == sum(
                        standard_dimension(total, k) for k in rule)
                    rep.add("summands account for the fusion product", params,
                            ok, {"dim": fused.dim, "summands": found})
                    mono = fused.monodromy_matrix("braiding")
                    rep.check("double braiding equals the twist-ratio route",
                              params, mono, fused.monodromy_matrix("twist"))
                    mus = [monodromy_eigenvalue(k1, k2, k, dom) for k in found]
                    rep.add("monodromy is semisimple with eigenvalues mu_k",
                            params,
                            _annihilating_product(mono, mus),
                            {"mu": {k: str(monodromy_eigenvalue(k1, k2, k, dom))
                                    for k in found}})
    # unit constraint: fusing with S_{0,0} preserves the dimension
    for n in range(1, min(max_total, 4) + 1):
        for k in range(n % 2, n + 1, 2):
            left = FusedModule(StandardModule(n, k, dom),
                               StandardModule(0, 0, dom))
            right = FusedModule(StandardModule(0, 0, dom),
                                StandardModule(n, k, dom))
            d = standard_dimension(n, k)
            rep.add("unit fusion preserves dimension", {"n": n, "k": k},
                    left.dim == d and right.dim == d,
                    {"left": left.dim, "right": right.dim, "expected": d})
    # S_{k,k} x_f S_{2,0} has the dimension of S_{k+2,k}
    for k in range(1, max(1, max_total - 1)):
        fused = FusedModule(StandardModule(k, k, dom), StandardModule(2, 0, dom))
        d = standard_dimension(k + 2, k)
        rep.add("S_{k,k} x S_{2,0} matches S_{k+2,k}", {"k": k},
                fused.dim == d, {"dim": fused.dim, "expected": d})
    return rep
