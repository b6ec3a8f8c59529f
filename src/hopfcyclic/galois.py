"""Hopf-Galois extensions and their relative cyclic homology.

A comodule algebra over a Hopf algebra H is an algebra A with a coaction
rho: A -> A (x) H that is simultaneously a comodule structure and an algebra
morphism.  Its coinvariants B = { a : rho(a) = a (x) 1 } form a unital
subalgebra, and the extension B in A is Hopf-Galois when the Galois map

    beta : A (x)_B A -> A (x) H,    x (x) y  |->  sum x y_(0) (x) y_(1)

is bijective.  Everything here is finite-dimensional and exact: beta is
materialized on the balanced-tensor quotient and inverted by elimination,
and the translation map kappa(h) = beta^{-1}(1 (x) h) is extracted together
with machine checks of its defining relations (base centrality, counit
collapse, anti-multiplicativity, and the two coaction exchange laws).

kappa transports balanced coefficients to Hopf coefficients: for an
A-bimodule M the commutator quotient M_B = M/[M, B] carries a left H-action
h . m = kappa^2(h) m kappa^1(h) and the invariants M^B carry a right action
m . h = kappa^1(h) m kappa^2(h); for M = A the quotient A_B becomes a
modular crossed module under the coaction induced by rho.  The relative
cyclic object Z_*(A/B, M), whose degree-n carrier is the cyclic balanced
tensor power M (x)_B A^{(x)_B n} realized as a quotient space, is compared
with the Hopf-algebra cyclic object of A_B through the slot-product map
lambda: each tensor slot collects one column of iterated coaction legs
multiplied in H while the zeroth legs multiply into the module.  The
comparison is certified degree by degree: invertibility (cross-checked
against the explicit translation-map chain inverse) and exact commutation
with every face, degeneracy, and cyclic operator.

Graded forms: a strong group grading is the same structure as a Galois
extension of the degree-one component by the group algebra, and cyclic
homology then folds over conjugacy classes into group homology of
centralizer quotients acting on graded commutator quotients.  Crossed
products and twisted group algebras are built and verified as strongly
graded algebras.  Separable base changes collapse relative objects by a
quasi-isomorphism.

The balanced quotients (A (x)_B A, its cyclic form and the relative
carriers) take their relators from ``hopf.balancing_relators``, one list
of slot junctions per algebra generator of the base, streamed into
``QuotientSpace``; the generators are found once, when the base is
certified, by ``hopf.algebra_generators``.  Every operator out of one of
these quotients (the Galois map, the faces, degeneracies and cyclic
operators of the relative object, the comparison map, the transported
actions) is built by ``QuotientSpace.induced_matrix``, which checks on the
whole relator span that it descends; maps into a plain space use a
relator-free quotient as target.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .crossed import CrossedModule, quotient_coaction, trivial_coaction, verify_crossed, verify_modular
from .cyclic import (
    CyclicObject,
    _fold,
    _sample_columns,
    build_cyclic,
    centralizer_homology,
    hc_connes,
    hochschild,
    rotation_add,
    sbi_check,
    verify_cyclic_identities,
)
from .hopf import AlgebraData, FiniteGroup, HopfAlgebra, TensorIndex, algebra_generators, balancing_relators, conjugacy_data, group_algebra, mismatch_labels, separability_element, slot_add, tensor_pairs
from .linalg import (
    QQ,
    QuasiIsoReport,
    QuotientSpace,
    SparseMatrix,
    Subspace,
    Vec,
    bilinear,
    flip_matrix,
    quasi_iso_check,
    rank,
    rank_kernel,
    solve_matrix,
    vec_add_at,
    vec_iadd_scaled,
)
from .reporting import CheckReport


# ---------------------------------------------------------------------------
# algebras and comodule algebras
# ---------------------------------------------------------------------------


class ComoduleAlgebra(AlgebraData):
    """An algebra with a coaction of a Hopf algebra.

    The coaction is (d * hd) x d with column j holding rho(e_j) on flattened
    (algebra, Hopf) indices, the same layout as crossed-module coactions.
    """

    def __init__(self, h: HopfAlgebra, basis, mult: SparseMatrix, unit: Vec,
                 coaction: SparseMatrix, name: str = "A"):
        super().__init__(h.field, basis, mult, unit, name)
        self.h = h
        if coaction.nrows != self.dim * h.dim or coaction.ncols != self.dim:
            raise ValueError("coaction has wrong shape")
        self.coaction = coaction
        self.grading = None  # block decomposition, when built from a grading
        self.degree_of = None

    def __repr__(self):
        return f"<ComoduleAlgebra {self.name} dim {self.dim} over {self.h.name}>"

    def coact_pairs(self, j: int) -> list:
        """rho(e_j) as [((a_index, h_index), coeff)]."""
        return tensor_pairs(self.coaction, j, self.h.dim)


def verify_algebra(a: AlgebraData) -> CheckReport:
    """Associativity (with a witness triple) and the two unit laws."""
    rep = CheckReport(f"algebra axioms for {a.name}")
    d, f = a.dim, a.field
    eye = SparseMatrix.identity(d, f)
    lhs = a.mult @ a.mult.kron(eye)
    rhs = a.mult @ eye.kron(a.mult)
    triple = TensorIndex([d] * 3)
    rep.check("multiplication is associative", (
        "(" + ", ".join(a.basis[i] for i in triple.unflatten(c)) + ")"
        for c in range(d * d * d) if lhs.cols.get(c) != rhs.cols.get(c)))
    um = a.unit_matrix()
    rep.check("left unit law", mismatch_labels(a.mult @ um.kron(eye), eye, a.basis))
    rep.check("right unit law", mismatch_labels(a.mult @ eye.kron(um), eye, a.basis))
    return rep


def verify_comodule_algebra(ca: ComoduleAlgebra) -> CheckReport:
    """Algebra axioms plus: the coaction is a counital comodule structure
    and a morphism of algebras."""
    rep = verify_algebra(ca)
    rep.title = f"comodule-algebra axioms for {ca.name}"
    h, f, d, hd = ca.h, ca.field, ca.dim, ca.h.dim
    rho = ca.coaction
    eye_a = SparseMatrix.identity(d, f)
    eye_h = SparseMatrix.identity(hd, f)
    rep.check("coaction is coassociative", mismatch_labels(
        rho.kron(eye_h) @ rho, eye_a.kron(h.comult) @ rho, ca.basis))
    rep.check("coaction is counital", mismatch_labels(
        eye_a.kron(h.counit_matrix()) @ rho, eye_a, ca.basis))
    mid = eye_a.kron(flip_matrix(hd, d, f)).kron(eye_h)
    rep.check("coaction is multiplicative", mismatch_labels(
        rho @ ca.mult, ca.mult.kron(h.mult) @ mid @ rho.kron(rho), ca.basis, ca.basis))
    unit_pair: Vec = {}
    for i, c in ca.unit.items():
        for k, c2 in h.unit.items():
            unit_pair[i * hd + k] = c * c2
    rep.add("coaction is unital", rho.apply(dict(ca.unit)) == unit_pair)
    return rep


def comodule_from_hopf(h: HopfAlgebra) -> ComoduleAlgebra:
    """A Hopf algebra coacting on itself by comultiplication; the
    coinvariants are the scalars."""
    ca = ComoduleAlgebra(h, h.basis, h.mult, h.unit, h.comult, name=h.name)
    verify_comodule_algebra(ca).require()
    return ca


# ---------------------------------------------------------------------------
# strong gradings, crossed products, twisted group algebras
# ---------------------------------------------------------------------------


def grading_degrees(gamma: FiniteGroup, dim: int, blocks) -> list:
    """The degree of each basis index, for `blocks` mapping each group
    element to basis indices; raises unless the blocks partition the basis."""
    degree_of: dict = {}
    for x in range(gamma.order):
        if x not in blocks:
            raise ValueError(f"no block for group element {gamma.labels[x]}")
        for i in blocks[x]:
            if i in degree_of:
                raise ValueError(f"basis index {i} appears in two blocks")
            degree_of[i] = x
    if len(degree_of) != dim:
        raise ValueError("the blocks do not cover the basis")
    return [degree_of[i] for i in range(dim)]


def strongly_graded(gamma: FiniteGroup, algebra: AlgebraData, blocks,
                    name: str | None = None) -> ComoduleAlgebra:
    """Grade an algebra by a finite group and synthesize the coaction.

    `blocks` maps each group element to the basis indices spanning its
    component.  The blocks must partition the basis, products must respect
    degrees, and the grading must be strong (A_x A_y spans all of A_{xy},
    verified by rank for every pair).  The returned comodule algebra coacts
    over the group algebra by a |-> a (x) deg(a) and records the grading.
    """
    f = algebra.field
    d = algebra.dim
    degree_of = grading_degrees(gamma, d, blocks)
    norm = {x: tuple(blocks[x]) for x in range(gamma.order)}
    e = gamma.identity
    for i in algebra.unit:
        if degree_of[i] != e:
            raise ValueError("the unit is not homogeneous of identity degree")
    for x in range(gamma.order):
        for y in range(gamma.order):
            xy = gamma.mul(x, y)
            pos = {i: t for t, i in enumerate(norm[xy])}
            prods = []
            for i in norm[x]:
                for j in norm[y]:
                    w: Vec = {}
                    for k, c in algebra.mult_pairs(i, j):
                        t = pos.get(k)
                        if t is None:
                            raise ValueError(
                                "the grading is violated: "
                                f"{algebra.basis[i]} * {algebra.basis[j]} "
                                f"leaves the {gamma.labels[xy]} component"
                            )
                        w[t] = c
                    if w:
                        prods.append(w)
            if Subspace(len(norm[xy]), f, prods).dim < len(norm[xy]):
                raise ValueError(
                    "the grading is not strong at the pair "
                    f"({gamma.labels[x]}, {gamma.labels[y]})"
                )
    h = group_algebra(gamma, f)
    cols = {i: {i * gamma.order + degree_of[i]: f.one} for i in range(d)}
    coaction = SparseMatrix(d * gamma.order, d, f, cols)
    ca = ComoduleAlgebra(h, algebra.basis, algebra.mult, algebra.unit, coaction,
                         name=name or algebra.name)
    verify_comodule_algebra(ca).require()
    ca.grading = norm
    ca.degree_of = degree_of
    return ca


def crossed_product(base: AlgebraData, gamma: FiniteGroup, action=None,
                    cocycle=None, name: str | None = None) -> ComoduleAlgebra:
    """Crossed product of an algebra by a group with a weak action and a
    cocycle: basis b e_x, product (b e_x)(c e_y) = b (x.c) omega(x, y) e_{xy}.

    `action` maps group elements to matrices on the base (identity when
    omitted); `cocycle` maps pairs to base elements (the unit when omitted).
    The weak-action and cocycle conditions are exactly what makes the
    synthesized product associative, so they are certified by the algebra
    axioms (with a witness triple on failure) and by strongness of the
    block grading.
    """
    f = base.field
    bd, go = base.dim, gamma.order
    if action is None:
        action = {x: SparseMatrix.identity(bd, f) for x in range(go)}
    cocycle = {} if cocycle is None else dict(cocycle)

    def omega(x: int, y: int) -> Vec:
        w = cocycle.get((x, y))
        if w is None:
            return dict(base.unit)
        return {i: f.coerce(c) for i, c in w.items()}

    dim = bd * go
    basis = tuple(
        f"{base.basis[i]}|{gamma.labels[x]}" for x in range(go) for i in range(bd)
    )
    cols: dict = {}
    for x in range(go):
        ax = action[x]
        for y in range(go):
            w = omega(x, y)
            xy = gamma.mul(x, y)
            for i in range(bd):
                for j in range(bd):
                    tw = base.product_vec(
                        base.product_vec({i: f.one}, ax.column(j)), w
                    )
                    if tw:
                        cols[(x * bd + i) * dim + (y * bd + j)] = {
                            xy * bd + k: c for k, c in tw.items()
                        }
    mult = SparseMatrix(dim, dim * dim, f, cols)
    unit = {gamma.identity * bd + i: c for i, c in base.unit.items()}
    label = name or f"{base.name}#G{go}"
    alg = AlgebraData(f, basis, mult, unit, name=label)
    blocks = {x: tuple(range(x * bd, (x + 1) * bd)) for x in range(go)}
    return strongly_graded(gamma, alg, blocks, name=label)


def twisted_group_algebra(gamma: FiniteGroup, cocycle, field=QQ,
                          name: str | None = None) -> ComoduleAlgebra:
    """The twisted group algebra of a scalar 2-cocycle: one-dimensional
    components e_x with e_x e_y = omega(x, y) e_{xy}."""
    one = field.one
    mult = SparseMatrix(1, 1, field, {0: {0: one}})
    b = AlgebraData(field, ("1",), mult, {0: one}, name="k")
    cvec = {key: {0: field.coerce(v)} for key, v in dict(cocycle).items()}
    return crossed_product(b, gamma, cocycle=cvec,
                           name=name or f"k_omega[G{gamma.order}]")


# ---------------------------------------------------------------------------
# base subalgebras
# ---------------------------------------------------------------------------


@dataclass
class BaseData:
    """A verified unital subalgebra together with its inclusion and the
    algebra generators (ambient vectors) that its balancing relators are
    generated from; the scalars need none."""

    space: Subspace
    inclusion: SparseMatrix  # ambient dim x base dim
    generators: list
    name: str = "B"

    @property
    def dim(self) -> int:
        return self.space.dim


def _check_subalgebra(a: AlgebraData, space: Subspace, name: str) -> BaseData:
    """Certify a unital subalgebra; closure under multiplication is
    certified by `algebra_generators`, whose generators are kept."""
    if not space.contains(dict(a.unit)):
        raise ValueError(f"{name} does not contain the unit of {a.name}")
    return BaseData(space, space.basis_matrix(),
                    algebra_generators(a, space.basis, name), name)


def coinvariants(ca: ComoduleAlgebra) -> BaseData:
    """The coinvariant subalgebra B = { a : rho(a) = a (x) 1 }, certified to
    be a unital subalgebra."""
    f, d = ca.field, ca.dim
    _, kernel = rank_kernel(ca.coaction - trivial_coaction(ca.h, d))
    return _check_subalgebra(ca, Subspace(d, f, kernel), f"{ca.name}^co")


def unit_base(a: AlgebraData) -> BaseData:
    """The scalars k.1 as a base subalgebra."""
    space = Subspace(a.dim, a.field, [dict(a.unit)])
    return BaseData(space, space.basis_matrix(), [], "k")


def base_from_vectors(a: AlgebraData, vectors, name: str = "B") -> BaseData:
    """Span the given ambient vectors and certify a unital subalgebra."""
    return _check_subalgebra(a, Subspace(a.dim, a.field, vectors), name)


# ---------------------------------------------------------------------------
# bimodules
# ---------------------------------------------------------------------------


class Bimodule:
    """An A-bimodule by structure tensors.

    `left` is m x (d*m) with column i*m+j holding e_i . u_j; `right` is
    m x (m*d) with column j*d+i holding u_j . e_i.
    """

    def __init__(self, a: AlgebraData, dim: int, left: SparseMatrix,
                 right: SparseMatrix, name: str = "M"):
        self.a = a
        self.dim = dim
        self.field = a.field
        if left.nrows != dim or left.ncols != a.dim * dim:
            raise ValueError("left action has wrong shape")
        if right.nrows != dim or right.ncols != dim * a.dim:
            raise ValueError("right action has wrong shape")
        self.left = left
        self.right = right
        self.name = name

    def __repr__(self):
        return f"<Bimodule {self.name} dim {self.dim} over {self.a.name}>"

    def left_vec(self, av: Vec, mv: Vec) -> Vec:
        return bilinear(self.left.cols, self.dim, av, mv)

    def right_vec(self, mv: Vec, av: Vec) -> Vec:
        return bilinear(self.right.cols, self.a.dim, mv, av)


def verify_bimodule(m: Bimodule) -> CheckReport:
    """Both associativities, the middle interchange, and the unit laws."""
    a = m.a
    f, d, md = m.field, a.dim, m.dim
    eye_a = SparseMatrix.identity(d, f)
    eye_m = SparseMatrix.identity(md, f)
    um = a.unit_matrix()
    rep = CheckReport(f"bimodule axioms for {m.name} over {a.name}")
    ab, mb = a.basis, [f"u{j}" for j in range(md)]
    rep.check("left action is associative", mismatch_labels(
        m.left @ a.mult.kron(eye_m), m.left @ eye_a.kron(m.left), ab, ab, mb))
    rep.check("right action is associative", mismatch_labels(
        m.right @ eye_m.kron(a.mult), m.right @ m.right.kron(eye_a), mb, ab, ab))
    rep.check("left and right actions commute", mismatch_labels(
        m.right @ m.left.kron(eye_a), m.left @ eye_a.kron(m.right), ab, mb, ab))
    rep.check("unit acts as identity on the left", mismatch_labels(
        m.left @ um.kron(eye_m), eye_m, mb))
    rep.check("unit acts as identity on the right", mismatch_labels(
        m.right @ eye_m.kron(um), eye_m, mb))
    return rep


def regular_bimodule(a: AlgebraData) -> Bimodule:
    """The algebra as a bimodule over itself; both structure tensors are the
    multiplication (flat keys (i, j) -> e_i e_j either way)."""
    return Bimodule(a, a.dim, a.mult, a.mult, name=a.name)


# ---------------------------------------------------------------------------
# the Galois map and the translation map
# ---------------------------------------------------------------------------


@dataclass
class GaloisExtension:
    """A certified Hopf-Galois extension with its translation map.

    `balanced` is A (x)_B A; `cyclic_balanced` additionally divides by outer
    commutators with the base.  `beta` acts from balanced coordinates to
    A (x) H; `kappa` holds ambient A (x) A representatives of the
    translation classes, one column per Hopf basis element, and
    `kappa_classes` the same columns in balanced coordinates.
    """

    ca: ComoduleAlgebra
    base: BaseData
    balanced: QuotientSpace
    cyclic_balanced: QuotientSpace
    beta: SparseMatrix
    kappa: SparseMatrix
    kappa_classes: SparseMatrix
    report: CheckReport

    def kappa_pairs(self, t: int) -> list:
        """kappa(e_t) as [((first_leg, second_leg), coeff)] on a chosen
        ambient representative."""
        return tensor_pairs(self.kappa, t, self.ca.dim)


def _pair_product(ca: AlgebraData, u: Vec, v: Vec) -> Vec:
    """(x (x) y)(x' (x) y') = x x' (x) y' y on tensor-square coordinates:
    the multiplication opposite on the second leg makes the balanced
    centralizer an algebra."""
    d = ca.dim
    out: Vec = {}
    for p, c in u.items():
        x, y = divmod(p, d)
        for q, c2 in v.items():
            x2, y2 = divmod(q, d)
            cc = c * c2
            for k, ck in ca.mult_pairs(x, x2):
                for l, cl in ca.mult_pairs(y2, y):
                    vec_add_at(out, k * d + l, cc * ck * cl)
    return out


def galois_check(ca: ComoduleAlgebra) -> GaloisExtension:
    """Certify that A is Hopf-Galois over its coinvariants and extract the
    translation map.

    Raises with the rank defect when the Galois map is not bijective; when
    it is, solves kappa(h) = beta^{-1}(1 (x) h) and verifies that kappa
    centralizes the base, collapses to the counit under multiplication, is
    an anti-morphism into the balanced square, and satisfies the two
    coaction exchange laws in the cyclic balanced square.
    """
    h, f, d, hd = ca.h, ca.field, ca.dim, ca.h.dim
    one = f.one
    base = coinvariants(ca)
    bvecs = [base.inclusion.column(r) for r in range(base.dim)]
    # x b (x) y - x (x) b y, and for the cyclic square also b x (x) y - x (x) y b,
    # for the algebra generators b of the base
    sq = TensorIndex([d, d])
    tables = [ca.product_tables(bv) for bv in base.generators]
    bal_gens = [r for left, right in tables
                for r in balancing_relators(sq, [(0, right, 1, left)])]
    balanced = QuotientSpace(d * d, f, bal_gens)

    amb_cols: dict = {}
    for x in range(d):
        for y in range(d):
            col: Vec = {}
            for (y0, y1), c in ca.coact_pairs(y):
                for k, c2 in ca.mult_pairs(x, y0):
                    vec_add_at(col, k * hd + y1, c * c2)
            if col:
                amb_cols[x * d + y] = col
    beta = QuotientSpace(d * hd, f, []).induced_matrix(
        SparseMatrix(d * hd, d * d, f, amb_cols), source=balanced,
        what="the Galois map",
    )
    r = rank(beta)
    if balanced.dim != d * hd or r != d * hd:
        raise ValueError(
            f"{ca.name} is not Hopf-Galois over {base.name}: the Galois map "
            f"has rank {r} from dimension {balanced.dim} to dimension {d * hd} "
            f"(defect {d * hd - r})"
        )
    rhs = SparseMatrix(
        d * hd, hd, f,
        {t: {i * hd + t: c for i, c in ca.unit.items()} for t in range(hd)},
    )
    kappa_classes = solve_matrix(beta, rhs)
    if kappa_classes is None:
        raise ValueError("the Galois map could not be inverted on 1 (x) H")
    kappa = balanced.section_matrix() @ kappa_classes

    rep = CheckReport(f"translation map for {ca.name} over {base.name}")
    proj = balanced.projection_matrix()
    zero_cls = SparseMatrix.zero(balanced.dim, hd, f)
    eye_a = SparseMatrix.identity(d, f)

    def uncentralized():
        for bv in bvecs:
            left, right = ca.mult_matrices(bv)
            move = left.kron(eye_a) - eye_a.kron(right)
            if proj @ (move @ kappa) != zero_cls:
                yield None

    rep.check("the translation classes centralize the base", uncentralized())

    eps_unit = SparseMatrix(
        d, hd, f,
        {
            t: {i: h.counit_of(t) * c for i, c in ca.unit.items()}
            for t in range(hd)
            if h.counit_of(t)
        },
    )
    rep.add(
        "multiplying the translation legs recovers the counit",
        ca.mult @ kappa == eps_unit,
    )

    kcls = {t: kappa_classes.column(t) for t in range(hd)}

    def not_anti():
        for s, t in itertools.product(range(hd), repeat=2):
            got = balanced.project_vec(
                _pair_product(ca, kappa.column(s), kappa.column(t))
            )
            want: Vec = {}
            for k, c in h.mult_pairs(t, s):
                vec_iadd_scaled(want, kcls[k], c)
            if got != want:
                yield f"(h={h.basis[s]}, k={h.basis[t]})"

    rep.check("the translation map is an anti-morphism", not_anti())

    cyclic_balanced = QuotientSpace(d * d, f, itertools.chain(bal_gens, (
        r for left, right in tables
        for r in balancing_relators(sq, [(0, left, 1, right)])
    )))
    projhat = cyclic_balanced.projection_matrix()

    def hat(vec: Vec) -> Vec:
        return cyclic_balanced.project_vec(vec)

    def second_leg_failures():
        for t in range(hd):
            lhs: Vec = {}
            for (t1, t2), c in h.comult_pairs(t):
                for q, c2 in hat(kappa.column(t1)).items():
                    vec_add_at(lhs, q * hd + t2, c * c2)
            rhs_vec: Vec = {}
            for p, c in kappa.cols.get(t, {}).items():
                i, j = divmod(p, d)
                for (j0, j1), c2 in ca.coact_pairs(j):
                    for q, cq in projhat.cols.get(i * d + j0, {}).items():
                        vec_add_at(rhs_vec, q * hd + j1, c * c2 * cq)
            if lhs != rhs_vec:
                yield f"h={h.basis[t]}"

    def first_leg_failures():
        for t in range(hd):
            lhs: Vec = {}
            for (t1, t2), c in h.comult_pairs(t):
                kt2 = hat(kappa.column(t2))
                for s, cs in h.antipode_of(t1).items():
                    for q, c2 in kt2.items():
                        vec_add_at(lhs, q * hd + s, c * cs * c2)
            rhs_vec: Vec = {}
            for p, c in kappa.cols.get(t, {}).items():
                i, j = divmod(p, d)
                for (i0, i1), c2 in ca.coact_pairs(i):
                    for q, cq in projhat.cols.get(i0 * d + j, {}).items():
                        vec_add_at(rhs_vec, q * hd + i1, c * c2 * cq)
            if lhs != rhs_vec:
                yield f"h={h.basis[t]}"

    rep.check("comultiplying the input matches coacting on the second leg",
              second_leg_failures())
    rep.check("antipode-twisted comultiplication matches coacting on the first leg",
              first_leg_failures())
    rep.require()
    return GaloisExtension(
        ca, base, balanced, cyclic_balanced, beta, kappa, kappa_classes, rep
    )


# ---------------------------------------------------------------------------
# transported module structures
# ---------------------------------------------------------------------------


@dataclass
class UMActions:
    """The two module structures a bimodule acquires through the translation
    map: a right H-action on the base invariants M^B and a left H-action on
    the commutator quotient M_B = M/[M, B]."""

    invariants: Subspace
    right_action: SparseMatrix  # inv x (inv * hd), column s*hd + t = u_s . e_t
    quotient: QuotientSpace
    left_action: SparseMatrix  # crossed-module layout: column t*q + s = e_t . u_s
    report: CheckReport


def um_actions(g: GaloisExtension, m: Bimodule, morphisms=()) -> UMActions:
    """Transport a bimodule along the translation map.

    On invariants the action is m . h = kappa^1(h) m kappa^2(h); on the
    commutator quotient it is h . m = kappa^2(h) m kappa^1(h).  Module
    axioms, stability, and well-definedness are verified, and naturality is
    spot-checked on any provided bimodule endomorphisms.
    """
    ca = g.ca
    h = ca.h
    f, hd, md = ca.field, ca.h.dim, m.dim
    one = f.one
    rep = CheckReport(f"translated actions on {m.name}")

    bvecs = [g.base.inclusion.column(r) for r in range(g.base.dim)]
    comms = []  # comms[r][j] = [b_r, m_j] = b_r m_j - m_j b_r
    for bv in bvecs:
        row = []
        for j in range(md):
            w = m.left_vec(bv, {j: one})
            vec_iadd_scaled(w, m.right_vec({j: one}, bv), -one)
            row.append(w)
        comms.append(row)
    comm_rows: dict = {}
    for j in range(md):
        col = {rpos * md + i: c for rpos, row in enumerate(comms) for i, c in row[j].items()}
        if col:
            comm_rows[j] = col
    _, inv_basis = rank_kernel(
        SparseMatrix(len(bvecs) * md, md, f, comm_rows)
    )
    invariants = Subspace(md, f, inv_basis)

    def conj(t: int, mv: Vec, invariant_side: bool) -> Vec:
        out: Vec = {}
        for (i, j), c in g.kappa_pairs(t):
            if invariant_side:
                w = m.right_vec(m.left_vec({i: one}, mv), {j: one})
            else:
                w = m.right_vec(m.left_vec({j: one}, mv), {i: one})
            vec_iadd_scaled(out, w, c)
        return out

    right_mats: dict = {}

    def unstable():
        # builds right_mats as it goes: complete once the search passes
        for t in range(hd):
            cols = {}
            for s in range(invariants.dim):
                coords = invariants.coords(
                    conj(t, invariants.basis_matrix().column(s), True))
                if coords is None:
                    yield f"(h={h.basis[t]}, invariant basis {s})"
                if coords:
                    cols[s] = coords
            right_mats[t] = SparseMatrix(invariants.dim, invariants.dim, f, cols)

    if not rep.check("the invariants are stable under the translated action", unstable()):
        rep.require()

    quotient = QuotientSpace(md, f, [w for row in comms for w in row if w])
    left_mats = {
        t: quotient.induced_matrix(
            SparseMatrix.from_columns(md, f, [conj(t, {j: one}, False) for j in range(md)]),
            what=f"the action of {h.basis[t]} on the commutator quotient",
        )
        for t in range(hd)
    }

    def assemble(mats: dict, unit_check: str, assoc_check: str, left_side: bool,
                 dim_: int) -> SparseMatrix:
        eye = SparseMatrix.identity(dim_, f)
        acc = SparseMatrix.zero(dim_, dim_, f)
        for t, c in h.unit.items():
            acc = acc + mats[t].scale(c)
        rep.add(unit_check, acc == eye)

        def unassociative():
            for t, s in itertools.product(range(hd), repeat=2):
                want = SparseMatrix.zero(dim_, dim_, f)
                for k, c in h.mult_pairs(t, s):
                    want = want + mats[k].scale(c)
                got = mats[t] @ mats[s] if left_side else mats[s] @ mats[t]
                if got != want:
                    yield f"(h={h.basis[t]}, k={h.basis[s]})"

        rep.check(assoc_check, unassociative())
        cols = {}
        for t in range(hd):
            for s in range(dim_):
                col = mats[t].column(s)
                if col:
                    key = t * dim_ + s if left_side else s * hd + t
                    cols[key] = col
        shape = (hd * dim_) if left_side else (dim_ * hd)
        return SparseMatrix(dim_, shape, f, cols)

    left_action = assemble(
        left_mats,
        "the quotient action is unital",
        "the quotient action is associative",
        True,
        quotient.dim,
    )
    right_action = assemble(
        right_mats,
        "the invariant action is unital",
        "the invariant action is associative",
        False,
        invariants.dim,
    )

    for idx, u in enumerate(morphisms):
        uq = quotient.induced_matrix(
            u, source=quotient, what=f"morphism {idx} on the commutator quotient"
        )
        nat = all(uq @ left_mats[t] == left_mats[t] @ uq for t in range(hd))
        rep.add(f"morphism {idx} is equivariant on the quotient", nat)
    rep.require()
    return UMActions(invariants, right_action, quotient, left_action, rep)


def ab_crossed_module(g: GaloisExtension) -> CrossedModule:
    """The commutator quotient A_B = A/[A, B] as a modular crossed module:
    translated left action, coaction induced from the comodule structure.
    The crossed compatibility and modularity are verified, not assumed."""
    ca = g.ca
    h = ca.h
    f, hd = ca.field, ca.h.dim
    um = um_actions(g, regular_bimodule(ca))
    q = um.quotient
    coaction = quotient_coaction(q, ca.coaction, SparseMatrix.identity(hd, f),
                                 "the coaction on the commutator quotient")
    basis = tuple(f"[{ca.basis[c]}]" for c in q.free_cols)
    mc = CrossedModule(h, q.dim, um.left_action, coaction, basis,
                       name=f"{ca.name}_B")
    verify_modular(mc).require(mc.name)
    mc.quotient = q
    return mc


# ---------------------------------------------------------------------------
# relative cyclic objects
# ---------------------------------------------------------------------------


def relative_cyclic(ca: AlgebraData, base: BaseData, m: Bimodule | None = None,
                    max_degree: int = 3) -> CyclicObject:
    """The relative cyclic object Z_*(A/B, M) on balanced tensor powers.

    The degree-n carrier is M (x)_B A^{(x)_B n} with the outer legs also
    identified across the base: the free tensor power modulo
    ``balancing_relators`` with, for each algebra generator of the base
    (``BaseData.generators``), the n inner junctions (p, p+1) and the outer
    junction (0, n); for b and c in B the junctions of bc are sums of those
    of b and c, so the generators give the whole relator span.  Faces
    multiply adjacent slots (the first and last through the bimodule
    actions), degeneracies insert the unit, and for M = A the cyclic
    operator rotates; for other coefficients the object is simplicial only.
    The carriers are the "balanced" quotients of the relator-free object on
    the free tensor powers (``z.free``).  It declares faces 0..n-1 (the
    right action, then the products) and every degeneracy as slots, and
    adds the last face and the rotation itself.  Each of its operators is
    pushed to the carriers once per degree and index by
    ``QuotientSpace.induced_matrix``, which checks descent on the whole
    relator span; the quotient object reads the pushed matrices.  The
    identity suite runs on the free object (through degree 2, at the
    carriers' basis representatives ``free_cols``, sampled by
    ``_sample_columns``): the quotient inherits every identity, since
    projecting commutes with each operator that descends, so an identity at
    a quotient column is the projection of the same identity at its
    representative.  Construction then pushes every operator those
    identities compose (out of degrees 0..3) that stays inside the
    truncation, taking over the last faces and rotations the suite built;
    any other, such as a degeneracy out of degree max_degree, is built and
    checked when first asked for.  No carrier above max_degree is built.
    When the base is the scalars this is the standard cyclic object of the
    algebra.
    """
    f = ca.field
    ad = ca.dim
    bim = m if m is not None else regular_bimodule(ca)
    md = bim.dim
    one = f.one

    # the junctions of the base's algebra generators span every balancing
    # relator; a scalar base has none and gives no relators at all
    tables = [
        ca.product_tables(bv)
        + ([bim.left_vec(bv, {j: one}) for j in range(md)],
           [bim.right_vec({j: one}, bv) for j in range(md)])
        for bv in base.generators
    ]

    @lru_cache(maxsize=None)
    def index(n: int) -> TensorIndex:
        return TensorIndex([md] + [ad] * n)

    def junctions(n: int, left_a, right_a, left_m, right_m) -> list:
        """x b (x) y = x (x) b y at slots p, p+1, then the outer legs
        b m (x) ... = m (x) ... b (b m = m b at degree 0)."""
        right = [right_m] + [right_a] * n
        return ([(p, right[p], p + 1, left_a) for p in range(n)]
                + [(0, left_m, n, right[n])])

    # the free object on M (x) A^{(x)n}, where slot k > 0 has stride
    # ad^(n-k): faces 0..n-1 act on the right or multiply, and the
    # degeneracies insert the unit, as slots; its "balanced" quotients carry z
    unit = ca.unit_matrix()

    @lru_cache(maxsize=None)
    def slots(kind: str, n: int) -> tuple:
        if kind == "face":
            return ((bim.right, ad ** (n - 1)),) + tuple(
                (ca.mult, ad ** (n - 1 - i)) for i in range(1, n))
        if kind == "degen":
            return tuple((unit, ad ** (n - i)) for i in range(n + 1))
        return ()

    def free_add(cols: list, kind: str, n: int, i: int, c) -> None:
        """The last face and, for M = A, the rotation."""
        if kind == "cyclic":
            rotation_add(cols, ad, n, c)
            return
        # the last slot a acts on the module from the left: with a moved in
        # front, the columns in the order of their rotated index are the
        # ones ending in 0, then in 1, ..., and the face is one slot_add
        slot_add([acc for a in range(ad) for acc in cols[a::ad]],
                 bim.left, ad ** (n - 1), c)

    coeff = ca.name if m is None else bim.name
    free = CyclicObject(f, max_degree, lambda n: index(n).size, slots, free_add,
                        name=f"Z({ca.name}/{base.name}; {coeff})", cyclic=m is None)

    def carrier(n: int) -> QuotientSpace:
        return free.quotient("balanced", n, (
            r for tab in tables for r in balancing_relators(index(n), junctions(n, *tab))
        ))

    families = {  # kind -> (degree shift, what)
        "face": (-1, "face {i} at degree {n}"),
        "degen": (1, "degeneracy {i} at degree {n}"),
        "cyclic": (0, "the cyclic operator at degree {n}"),
    }

    @lru_cache(maxsize=None)
    def operator(kind: str, n: int, i: int) -> SparseMatrix:
        """The operator on the quotient carriers: the free object's
        operator pushed through induced_matrix, which checks that it
        descends."""
        shift, what = families[kind]
        cols = free.columns(kind, n, i)
        return carrier(n + shift).induced_matrix(
            SparseMatrix(index(n + shift).size, len(cols), f,
                         {idx: col for idx, col in enumerate(cols) if col}),
            source=carrier(n), what=what.format(i=i, n=n),
        )

    def pushed_add(cols: list, kind: str, n: int, i: int, c) -> None:
        for col, v in operator(kind, n, i).cols.items():
            vec_iadd_scaled(cols[col], v, c)

    z = CyclicObject(f, max_degree, lambda n: carrier(n).dim, lambda kind, n: (),
                     pushed_add, name=free.name, cyclic=m is None)
    z.carrier = carrier
    z.bimodule = bim
    z.free = free

    # the identities on the free tensor powers, at the carriers' basis
    # representatives; the quotient inherits them through descent.
    # _sample_columns sizes up the degree-2 carrier; below degree 2 every
    # column is checked instead
    checked = min(2, max_degree)
    sample = _sample_columns(z) if checked == 2 else None

    def columns(n: int) -> list:
        reps = carrier(n).free_cols
        return reps if sample is None else [reps[c] for c in sample(n)]

    rep = verify_cyclic_identities(free, checked, columns)

    # descent of every operator that those identities compose, inside the
    # truncation; any other is checked when it is first asked for.  Per
    # degree tau_n and d_n come first: the suite's evaluators hold their
    # columns, which the push takes over and drops before a slot is built
    for n in range(min(checked + 1, max_degree) + 1):
        if m is None:
            operator("cyclic", n, 0)
        for i in reversed(range(n + 1)):
            if n:
                operator("face", n, i)
            if n < max_degree:
                operator("degen", n, i)
    free.release()
    rep.require(z.name)
    return z


# ---------------------------------------------------------------------------
# the slot-product comparison
# ---------------------------------------------------------------------------


def _slot_matrix(ca: ComoduleAlgebra, bim: Bimodule, n: int,
                 qm: QuotientSpace) -> SparseMatrix:
    """Transport matrix on the free carrier M (x) A^{(x)n}.

    Slot l of the source is coacted l+1 times; slot j of the target collects
    the j-th coaction legs of source slots j..n multiplied in H, while the
    zeroth legs multiply into the module through the bimodule's right
    action.  The accumulated module vector is projected to coordinates of
    the target coefficients, the quotient `qm` of the module.
    """
    h = ca.h
    f = ca.field
    hd, ad, md = h.dim, ca.dim, bim.dim
    one = f.one
    tix = TensorIndex([md] + [ad] * n)
    # iterated[l][a]: the l-fold coaction of a as (zeroth leg, (legs 1..l),
    # coeff), built level by level from the (l-1)-fold one
    iterated = [[[(a, (), one)] for a in range(ad)]]
    for _ in range(n):
        iterated.append([[(b0, (b1,) + tail, c * c2)
                          for a0, tail, c in terms
                          for (b0, b1), c2 in ca.coact_pairs(a0)]
                         for terms in iterated[-1]])

    cols: dict = {}
    for idx in range(tix.size):
        tup = tix.unflatten(idx)
        col: Vec = {}
        for combo in itertools.product(
            *[iterated[l][tup[l]] for l in range(1, n + 1)]
        ):
            coeff = one
            mv: Vec = {tup[0]: one}
            for a0, _, c in combo:
                coeff = coeff * c
                mv = bim.right_vec(mv, {a0: one})
                if not mv:
                    break
            if not mv:
                continue
            mq = qm.project_vec(mv)
            if not mq:
                continue
            slot_vecs = []
            for j in range(1, n + 1):
                hv: Vec = {combo[j - 1][1][j - 1]: one}
                for l in range(j + 1, n + 1):
                    hv = h.product_vec(hv, {combo[l - 1][1][j - 1]: one})
                    if not hv:
                        break
                slot_vecs.append(hv)
            if any(not sv for sv in slot_vecs):
                continue
            partial = [(0, coeff)]
            for sv in slot_vecs:
                partial = [
                    (p * hd + k, c * ck)
                    for p, c in partial
                    for k, ck in sv.items()
                ]
            for p, c in partial:
                for k, ck in mq.items():
                    vec_add_at(col, p * qm.dim + k, c * ck)
        if col:
            cols[idx] = col
    return SparseMatrix(hd**n * qm.dim, tix.size, f, cols)


def _kappa_chain_matrix(g: GaloisExtension, z: CyclicObject, bim: Bimodule,
                        qm: QuotientSpace, n: int) -> SparseMatrix:
    """The explicit inverse candidate of the slot-product comparison: send
    (h^1, ..., h^n) (x) m to m kappa^1(h^1) (x) kappa^2(h^1) kappa^1(h^2)
    (x) ... (x) kappa^2(h^n) on carrier representatives."""
    ca = g.ca
    h = ca.h
    f = ca.field
    hd = h.dim
    one = f.one
    carrier = z.carrier(n)
    tn = TensorIndex([bim.dim] + [ca.dim] * n)
    cols: dict = {}
    src = TensorIndex([hd] * n + [qm.dim])
    for sidx in range(src.size):
        stup = src.unflatten(sidx)
        legs, mclass = stup[:n], stup[n]
        mv = qm.section_vec(mclass)
        # accumulate slot by slot: slot l of the carrier receives
        # kappa^2(h^l) kappa^1(h^{l+1}) (kappa^2(h^n) at the end)
        col: Vec = {}
        kap = [g.kappa_pairs(t) for t in legs]
        acc = [(dict(mv), (), one)]  # (module vec, chosen slots, coeff)
        for l in range(n):
            nxt = []
            for mvec, slots, c in acc:
                for (i, j), ck in kap[l]:
                    if l == 0:
                        mvec2 = bim.right_vec(mvec, {i: one})
                        if not mvec2:
                            continue
                        nxt.append((mvec2, slots + (j,), c * ck))
                    else:
                        # multiply kappa^1 of this leg into the previous slot
                        prev = slots[:-1]
                        for k, cm in ca.mult_pairs(slots[-1], i):
                            nxt.append((mvec, prev + (k, j), c * ck * cm))
            acc = nxt
        for mvec, slots, c in acc:
            for mm, cm in mvec.items():
                vec_add_at(col, tn.flatten((mm,) + slots), c * cm)
        pr = carrier.project_vec(col)
        if pr:
            cols[sidx] = pr
    return SparseMatrix(carrier.dim, src.size, f, cols)


@dataclass
class LambdaComparison:
    """The slot-product comparison between a relative cyclic object and the
    Hopf-algebra object with translated coefficients."""

    relative: CyclicObject
    hopf_side: CyclicObject
    coefficients: CrossedModule
    matrices: dict
    hc_relative: list | None
    hc_hopf: list | None
    report: CheckReport


def _check_commutation(rep: CheckReport, src: CyclicObject, tgt: CyclicObject,
                       mats: dict, max_degree: int, cyclic: bool) -> None:
    """Add one check per face, degeneracy and (when cyclic) cyclic operator
    through max_degree: the degreewise maps mats[n] intertwine src and tgt.
    A failure names the first source column where the two sides differ."""

    def check(name: str, where: str, lhs: SparseMatrix, rhs: SparseMatrix) -> None:
        rep.check(name, (f"{where}, column {j}" for j in range(lhs.ncols)
                         if lhs.cols.get(j) != rhs.cols.get(j)))

    for n in range(1, max_degree + 1):
        for i in range(n + 1):
            check(f"face {i} commutes at degree {n}", f"degree {n}, face {i}",
                  tgt.face(n, i) @ mats[n], mats[n - 1] @ src.face(n, i))
    for n in range(max_degree):
        for i in range(n + 1):
            check(f"degeneracy {i} commutes at degree {n}", f"degree {n}, degeneracy {i}",
                  tgt.degen(n, i) @ mats[n], mats[n + 1] @ src.degen(n, i))
    if cyclic:
        for n in range(max_degree + 1):
            check(f"cyclic operator commutes at degree {n}", f"degree {n}",
                  tgt.cyclic(n) @ mats[n], mats[n] @ src.cyclic(n))


def _comparison_top(max_degree: int, want_hc: bool) -> int:
    """The truncation of both objects of a comparison through max_degree:
    max_degree + 1 when cyclic homology through max_degree is computed (its
    complex needs one carrier more), else max_degree, but never below
    min(2, max_degree + 1), the degree through which the identity suites
    of ``relative_cyclic`` and ``build_cyclic`` check (min(2, top))."""
    return max_degree + 1 if want_hc or max_degree < 2 else max_degree


def lambda_iso(g: GaloisExtension, m: Bimodule | None = None,
               max_degree: int = 3) -> LambdaComparison:
    """Certify that the slot-product map is an isomorphism of (cyclic,
    or simplicial for general coefficients) objects in degrees up to
    `max_degree`: degreewise invertibility, cross-checked against the
    translation-map chain inverse, and exact commutation with every
    operator.  For coefficients A itself the cyclic homology of both sides
    is computed and compared (characteristic zero)."""
    ca = g.ca
    h = ca.h
    f = ca.field
    want_hc = m is None and f.characteristic == 0
    top = _comparison_top(max_degree, want_hc)
    z = relative_cyclic(ca, g.base, m, top)
    if m is None:
        mbar = ab_crossed_module(g)
        qm = mbar.quotient
    else:
        um = um_actions(g, m)
        qm = um.quotient
        mbar = CrossedModule(h, qm.dim, um.left_action, trivial_coaction(h, qm.dim),
                             name=f"{m.name}_B")
        verify_crossed(mbar).require(mbar.name)
    target = build_cyclic(h, mbar, top)
    bim = z.bimodule

    rep = CheckReport(f"slot-product comparison for {z.name}")
    mats: dict = {}
    for n in range(max_degree + 1):
        amb = _slot_matrix(ca, bim, n, qm)
        lam = mats[n] = QuotientSpace(amb.nrows, f, []).induced_matrix(
            amb, source=z.carrier(n), what=f"the comparison map at degree {n}"
        )
        r = rank(lam)
        rep.add(
            f"comparison invertible at degree {n}",
            r == z.dim(n) == target.dim(n),
            f"rank {r}, source {z.dim(n)}, target {target.dim(n)}",
        )
        chain = _kappa_chain_matrix(g, z, bim, qm, n)
        eye_t = SparseMatrix.identity(target.dim(n), f)
        eye_s = SparseMatrix.identity(z.dim(n), f)
        rep.add(
            f"translation chain inverts the comparison at degree {n}",
            lam @ chain == eye_t and chain @ lam == eye_s,
        )
    _check_commutation(rep, z, target, mats, max_degree, cyclic=m is None)
    rep.require()
    hc_rel = hc_hopf = None
    if want_hc:
        hc_rel = hc_connes(z, 0, max_degree)
        hc_hopf = hc_connes(target, 0, max_degree)
        rep.add(
            "cyclic homology agrees along the comparison",
            hc_rel == hc_hopf,
            f"relative {hc_rel}, transported {hc_hopf}",
        )
    return LambdaComparison(z, target, mbar, mats, hc_rel, hc_hopf, rep)


# ---------------------------------------------------------------------------
# separable base change
# ---------------------------------------------------------------------------


def _separability_element(ca: AlgebraData, middle: BaseData,
                          inner: BaseData) -> Vec:
    """Restrict to the middle base B and solve for its separability element
    over the inner base C, balanced over C's algebra generators (see
    `hopf.separability_element`); returns a representative in B (x) B
    coordinates or raises."""
    f = ca.field
    bd = middle.dim
    bcols = [middle.inclusion.column(r) for r in range(bd)]
    cols = {}
    for i in range(bd):
        for j in range(bd):
            col = middle.space.coords(ca.product_vec(bcols[i], bcols[j]))
            if col is None:
                raise ValueError(f"{middle.name} is not closed under multiplication")
            if col:
                cols[i * bd + j] = col
    bmult = SparseMatrix(bd, bd * bd, f, cols)
    balg = AlgebraData(f, tuple(f"b{r}" for r in range(bd)), bmult,
                       middle.space.coords(dict(ca.unit)), name=middle.name)
    cvecs = []
    for gv in inner.generators:
        coords = middle.space.coords(gv)
        if coords is None:
            raise ValueError(f"{inner.name} is not contained in {middle.name}")
        cvecs.append(coords)
    return separability_element(balg, cvecs)


@dataclass
class BaseChangeComparison:
    """Collapsing the relative object from a small base to a separable
    larger one, certified to be a quasi-isomorphism."""

    separability_element: Vec  # representative in B (x) B coordinates
    chain_map: dict
    quasi_iso: QuasiIsoReport
    hh: list | None
    hc_source: list | None
    hc_target: list | None
    report: CheckReport

    @property
    def ok(self) -> bool:
        return self.report.ok


def separable_base_change(ca: AlgebraData, middle: BaseData, inner: BaseData,
                          m: Bimodule | None = None, low: int = 0,
                          high: int = 3) -> BaseChangeComparison:
    """When B is separable over C (inside A), the canonical collapse
    Z_*(A/C, M) -> Z_*(A/B, M) is a quasi-isomorphism.  The separability
    element is found by solving the bimodule splitting equations exactly,
    the collapse is certified to be a chain map, and the induced maps on
    homology are checked to be isomorphisms degree by degree.  For the
    scalars as inner base (and coefficients A itself, characteristic zero)
    the cyclic homology of both objects is compared as well, together with
    exact-sequence feasibility of the collapsed pair.
    """
    f = ca.field
    for r in range(inner.dim):
        if not middle.space.contains(inner.inclusion.column(r)):
            raise ValueError(f"{inner.name} is not contained in {middle.name}")
    element = _separability_element(ca, middle, inner)
    top = high + 1
    z_src = relative_cyclic(ca, inner, m, top)
    z_tgt = relative_cyclic(ca, middle, m, top)
    fmap: dict = {}
    for n in range(low, high + 2):
        if n < 0 or n > top:
            continue
        qs = z_src.carrier(n)
        fmap[n] = z_tgt.carrier(n).induced_matrix(
            SparseMatrix.identity(qs.ambient_dim, f), source=qs,
            what=f"the collapse from {inner.name} to {middle.name} at degree {n}",
        )
    qi = quasi_iso_check(fmap, z_src.chain_complex(top), z_tgt.chain_complex(top),
                         low, high)
    rep = CheckReport(
        f"base change from {inner.name} to {middle.name} in {ca.name}"
    )
    wit = qi.witness
    if wit is None and not qi.ok:
        bad = next(dc for dc in qi.degrees if not dc.iso)
        wit = (
            f"degree {bad.degree}: induced rank {bad.induced_rank} between "
            f"homology of dimensions {bad.source_dim} and {bad.target_dim}"
        )
    rep.add("the collapse is a quasi-isomorphism", qi.ok, wit)
    hh = hc_src = hc_tgt = None
    if (
        inner.dim == 1 and m is None and low == 0
        and f.characteristic == 0
    ):
        hh = hochschild(z_src, 0, high)
        hc_src = hc_connes(z_src, 0, high)
        hc_tgt = hc_connes(z_tgt, 0, high)
        rep.add(
            "cyclic homology is preserved by the base change",
            hc_src == hc_tgt,
            f"{hc_src} vs {hc_tgt}",
        )
        rep.add(
            "the collapsed pair is exact-sequence feasible",
            sbi_check(hh, hc_tgt).ok,
        )
    return BaseChangeComparison(element, fmap, qi, hh, hc_src, hc_tgt, rep)


# ---------------------------------------------------------------------------
# graded class folding
# ---------------------------------------------------------------------------


@dataclass
class GradedFolding:
    """Direct relative cyclic homology of a strongly graded algebra against
    the conjugacy-class formula."""

    direct: list
    folded: list
    per_class: dict
    report: CheckReport


def burghelea_graded(g: GaloisExtension, low: int = 0, high: int = 3) -> GradedFolding:
    """For a strong grading by a finite group, fold the group homology of
    each centralizer quotient acting on the graded commutator quotient
    \\bar A_x = A_x / [A_x, B] through the translation map, and compare with
    the direct computation on the relative cyclic object."""
    ca = g.ca
    h = ca.h
    gamma = getattr(h, "group", None)
    if gamma is None or ca.grading is None:
        raise ValueError("the extension does not come from a group grading")
    f = ca.field
    one = f.one
    top = high + 1
    z = relative_cyclic(ca, g.base, None, top)
    direct = hc_connes(z, low, high)

    conj = conjugacy_data(gamma)
    per_class: dict = {}
    for x in conj.transversal:
        block = list(ca.grading[x])
        if not block:
            continue
        pos = {i: t for t, i in enumerate(block)}

        def to_block(vec: Vec, who: str) -> Vec:
            out = {}
            for k, c in vec.items():
                t = pos.get(k)
                if t is None:
                    raise ValueError(
                        f"{who} leaves the {gamma.labels[x]} component"
                    )
                out[t] = c
            return out

        rels = []
        for r in range(g.base.dim):
            bv = g.base.inclusion.column(r)
            for i in block:
                w = ca.product_vec({i: one}, bv)
                vec_iadd_scaled(w, ca.product_vec(bv, {i: one}), -one)
                rel = to_block(w, "a base commutator")
                if rel:
                    rels.append(rel)
        qx = QuotientSpace(len(block), f, rels)
        if qx.dim == 0:
            continue
        cd = conj.centralizers[x]

        def act_matrix(y: int) -> SparseMatrix:
            # a -> kappa^2(y) a kappa^1(y) on the block, pushed to qx
            who = f"the action of {gamma.labels[y]}"
            cols = {}
            for t, a in enumerate(block):
                out: Vec = {}
                for (i, j), c in g.kappa_pairs(y):
                    w = ca.product_vec(ca.product_vec({j: one}, {a: one}), {i: one})
                    vec_iadd_scaled(out, w, c)
                col = to_block(out, who)
                if col:
                    cols[t] = col
            return qx.induced_matrix(
                SparseMatrix(len(block), len(block), f, cols),
                what=f"{who} on the {gamma.labels[x]} component",
            )

        per_class[gamma.labels[x]] = centralizer_homology(
            cd, act_matrix, high, "graded"
        )

    folded = [
        sum(_fold(gh, n) for gh in per_class.values())
        for n in range(low, high + 1)
    ]
    rep = CheckReport(f"graded class folding for {ca.name}")
    rep.agree_by_degree(range(low, high + 1), (
        "direct dims match the folded class formula", {"direct": direct, "folded": folded}))
    return GradedFolding(direct, folded, per_class, rep)

