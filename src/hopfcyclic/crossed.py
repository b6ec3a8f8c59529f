"""Crossed coefficient modules: left modules + right comodules over a Hopf
algebra satisfying the crossed compatibility, with the modularity condition
(the canonical endomorphism u(m) = m_(1) . m_(0) being the identity) checked
separately.

Index conventions: the action is a matrix H (x) M -> M, column (i, j) at flat
index i * dim(M) + j; the coaction is M -> M (x) H with output (j', i') at
flat index j' * dim(H) + i'.  Every constructor reads the legs
h_(2) (x) h_(3) y S(h_(1)) of the crossed compatibility from one kernel,
``HopfAlgebra.crossed_legs``, and its output must pass ``verify_crossed``,
the exact matrix identities; that certificate expands the legs on its own,
from the scalar accessors, on purpose, so it does not share the kernel it
checks.

Sub- and quotient modules (induction, the pieces of the coinvariants
filtration, the coaction components) are built through one path: ``Subspace.induced_matrix`` or
``QuotientSpace.induced_matrix`` restricts or pushes each element's action,
``action_tensor`` stacks the matrices, and ``sub_coaction`` or
``quotient_coaction`` restricts or descends the coaction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .linalg import (
    LinAlgError,
    QuotientSpace,
    SparseMatrix,
    Subspace,
    Vec,
    WellDefinednessError,
    bilinear,
    rank,
    rank_kernel,
    vec_add_at,
)
from .hopf import HopfAlgebra, HopfSubalgebra, FiniteGroup, TensorIndex, algebra_generators, balancing_relators, conjugacy_data, group_subalgebra, mismatch_labels, op_cop, tensor_pairs
from .reporting import CheckReport


class CrossedModule:
    """A left H-module / right H-comodule pair with named basis."""

    def __init__(
        self,
        h: HopfAlgebra,
        dim: int,
        action: SparseMatrix,
        coaction: SparseMatrix,
        basis: Sequence[str] | None = None,
        name: str = "M",
    ):
        self.h = h
        self.dim = dim
        if action.nrows != dim or action.ncols != h.dim * dim:
            raise ValueError("action has wrong shape")
        if coaction.nrows != dim * h.dim or coaction.ncols != dim:
            raise ValueError("coaction has wrong shape")
        self.action = action
        self.coaction = coaction
        self.basis = tuple(basis) if basis else tuple(f"m{i}" for i in range(dim))
        self.name = name
        self.field = h.field
        self._act_mats: dict = {}

    def __repr__(self):
        return f"<CrossedModule {self.name} dim {self.dim} over {self.h.name}>"

    def act_pairs(self, i: int, j: int) -> list:
        return list(self.action.cols.get(i * self.dim + j, {}).items())

    def act_matrix(self, i: int) -> SparseMatrix:
        """The action of basis element e_i of H as a dim x dim matrix."""
        m = self._act_mats.get(i)
        if m is None:
            base = i * self.dim
            cols = {
                j: dict(self.action.cols[base + j])
                for j in range(self.dim)
                if base + j in self.action.cols
            }
            m = SparseMatrix(self.dim, self.dim, self.field, cols)
            self._act_mats[i] = m
        return m

    def act_vec(self, hv: Vec, mv: Vec) -> Vec:
        return bilinear(self.action.cols, self.dim, hv, mv)

    def coact_pairs(self, j: int) -> list:
        return tensor_pairs(self.coaction, j, self.h.dim)


def action_tensor(mats: Sequence[SparseMatrix], dim: int, field) -> SparseMatrix:
    """Stack the matrices of e_0, e_1, ... acting on a dim-dimensional space
    into the action H (x) M -> M: column i * dim + j holds e_i . m_j."""
    cols = {i * dim + j: col for i, mat in enumerate(mats)
            for j, col in mat.columns() if col}
    return SparseMatrix(dim, len(mats) * dim, field, cols)


def quotient_coaction(q: QuotientSpace, coaction: SparseMatrix,
                      h_map: SparseMatrix, what: str) -> SparseMatrix:
    """The coaction V -> V (x) H descended to V/R and pushed along
    h_map: H -> H', that is (proj (x) h_map) @ coaction on V/R.  Every
    relator must map into the kernel of proj (x) h_map, which contains
    R (x) H; ``induced_matrix`` checks this with a relator-free target and
    raises WellDefinednessError naming `what` otherwise."""
    op = q.projection_matrix().kron(h_map) @ coaction
    return QuotientSpace(op.nrows, q.field, []).induced_matrix(op, source=q, what=what)


def sub_coaction(s: Subspace, coaction: SparseMatrix, hd: int, what: str) -> SparseMatrix:
    """The coaction V -> V (x) H restricted to the subspace s, in the
    canonical basis of s: each H-leg slice of the image of a basis vector is
    replaced by its coordinates; a slice outside s raises
    WellDefinednessError(what)."""
    cols = {}
    for t, b in enumerate(s.basis):
        slices: dict = {}
        for idx, c in coaction.apply(b).items():
            v, i = divmod(idx, hd)
            slices.setdefault(i, {})[v] = c
        col = {}
        for i, part in slices.items():
            coords = s.coords(part)
            if coords is None:
                raise WellDefinednessError(what)
            for u, c in coords.items():
                col[u * hd + i] = c
        if col:
            cols[t] = col
    return SparseMatrix(s.dim * hd, s.dim, s.field, cols)


def trivial_coaction(h: HopfAlgebra, dim: int) -> SparseMatrix:
    """v -> v (x) 1 on a dim-dimensional space, in the coaction layout."""
    return SparseMatrix.identity(dim, h.field).kron(
        SparseMatrix(h.dim, 1, h.field, {0: dict(h.unit)}))


def verify_crossed(m: CrossedModule) -> CheckReport:
    """Module axioms, comodule axioms, and the crossed compatibility
    rho(h . x) = sum h_(2) x_(0) (x) h_(3) x_(1) S(h_(1)).  The legs are
    expanded here, not read from ``HopfAlgebra.crossed_legs``, so a fault in
    the kernel the constructors share shows up as a failed check."""
    rep = CheckReport(f"crossed axioms for {m.name}")
    h, f = m.h, m.field
    hd, md = h.dim, m.dim
    idm = SparseMatrix.identity(md, f)
    idh = SparseMatrix.identity(hd, f)

    hb, mb = h.basis, m.basis
    rep.check("action associativity", mismatch_labels(
        m.action @ h.mult.kron(idm), m.action @ idh.kron(m.action), hb, hb, mb))
    rep.check("unit acts as identity", mismatch_labels(
        m.action @ h.unit_matrix().kron(idm), idm, mb))
    rep.check("coaction coassociativity", mismatch_labels(
        m.coaction.kron(idh) @ m.coaction, idm.kron(h.comult) @ m.coaction, mb))
    rep.check("counit after coaction is identity", mismatch_labels(
        idm.kron(h.counit_matrix()) @ m.coaction, idm, mb))

    # crossed condition, built columnwise over basis (i of H, j of M)
    lhs = m.coaction @ m.action  # (M x H) <- (H x M)
    cols = {}
    for i in range(hd):
        legs3 = h.sweedler(i, 3)
        for j in range(md):
            col: dict = {}
            for (a, b, c), cleg in legs3:
                sa = h.antipode_of(a)
                for (j0, j1), cco in m.coact_pairs(j):
                    for jm, cact in m.act_pairs(b, j0):
                        # h-leg: c * j1 * S(a)
                        for p1, c1 in h.mult_pairs(c, j1):
                            for s_idx, cs in sa.items():
                                for p2, c2 in h.mult_pairs(p1, s_idx):
                                    vec_add_at(col, jm * hd + p2, cleg * cco * cact * c1 * cs * c2)
            if col:
                cols[i * md + j] = col
    rep.check("crossed compatibility", (
        f"h={h.basis[key // md]}, m={m.basis[key % md]}"
        for key in range(hd * md) if lhs.cols.get(key) != cols.get(key)))
    return rep


def u_map(m: CrossedModule) -> SparseMatrix:
    """The canonical endomorphism u(x) = x_(1) . x_(0)."""
    cols = {}
    for j in range(m.dim):
        col: dict = {}
        for (j0, i1), c in m.coact_pairs(j):
            for k, c2 in m.act_pairs(i1, j0):
                vec_add_at(col, k, c * c2)
        if col:
            cols[j] = col
    return SparseMatrix(m.dim, m.dim, m.field, cols)


def verify_modular(m: CrossedModule) -> CheckReport:
    """Crossed axioms plus modularity (u = identity)."""
    rep = verify_crossed(m)
    u = u_map(m)
    rep.check("modularity (u = id)", (
        f"u({m.basis[j]}) != {m.basis[j]}"
        for j in range(m.dim) if u.cols.get(j) != {j: m.field.one}))
    return rep


# ---------------------------------------------------------------------------
# basic constructors
# ---------------------------------------------------------------------------


def adjoint(h: HopfAlgebra) -> CrossedModule:
    """H itself with twisted conjugation h . x = h_(2) x S(h_(1)) and the
    comultiplication as coaction."""
    d = h.dim
    cols = {}
    for i in range(d):
        for j in range(d):
            col: dict = {}
            for (b, p), c in h.crossed_legs(i, j):
                e = h.counit.get(b)
                if e:
                    vec_add_at(col, p, c * e)
            if col:
                cols[i * d + j] = col
    action = SparseMatrix(d, d * d, h.field, cols)
    m = CrossedModule(h, d, action, h.comult, h.basis, name=f"ad({h.name})")
    verify_crossed(m).require(m.name)
    return m


def coadjoint(h: HopfAlgebra) -> CrossedModule:
    """H with left multiplication and coadjoint coaction
    rho(x) = sum x_(2) (x) x_(3) S(x_(1))."""
    d = h.dim
    cols = {}
    for j in range(d):
        col: dict = {}
        for u, cu in h.unit.items():
            for (b, p), c in h.crossed_legs(j, u):
                vec_add_at(col, b * d + p, cu * c)
        if col:
            cols[j] = col
    coaction = SparseMatrix(d * d, d, h.field, cols)
    m = CrossedModule(h, d, h.mult, coaction, h.basis, name=f"coad({h.name})")
    verify_crossed(m).require(m.name)
    return m


def trivial_module(h: HopfAlgebra) -> CrossedModule:
    """k with the counit action and the unit coaction."""
    return one_dimensional(h, dict(h.counit), name=f"k_triv({h.name})")


def _character(h: HopfAlgebra, values: Vec, noun: str) -> SparseMatrix:
    """values, coerced into the field, as a 1 x dim H matrix, after checking
    that they define an algebra character of H: multiplicative and 1 on the
    unit.  Raises ValueError naming `noun` otherwise."""
    f = h.field
    values = {i: f.coerce(c) for i, c in values.items()}
    chi = SparseMatrix(1, h.dim, f, {i: {0: v} for i, v in values.items() if v})
    if chi @ h.mult != chi.kron(chi):
        raise ValueError(f"{noun} is not multiplicative")
    if chi.apply(h.unit).get(0, f.zero) != f.one:
        raise ValueError(f"{noun} does not send the unit to 1")
    return chi


def one_dimensional(
    h: HopfAlgebra,
    character: Vec,
    coaction_grouplike: int | None = None,
    name: str = "k_chi",
) -> CrossedModule:
    """One-dimensional module by an algebra character, with coaction by a
    grouplike element (the unit when omitted).  The character property and
    the crossed axioms are verified; modularity is *not* required (that is
    exactly what can fail for a grouplike-twisted coaction)."""
    f = h.field
    action = _character(h, character, "character")
    if coaction_grouplike is None:
        co_vec = dict(h.unit)
    else:
        if not h.is_grouplike(coaction_grouplike):
            raise ValueError("coaction index is not a grouplike basis element")
        co_vec = {coaction_grouplike: f.one}
    coaction = SparseMatrix(h.dim, 1, f, {0: dict(co_vec)})
    m = CrossedModule(h, 1, action, coaction, ("m",), name=name)
    verify_crossed(m).require(m.name)
    return m


def modular_pair_module(
    h: HopfAlgebra, sigma: int, delta: Vec | None = None
) -> tuple[CrossedModule, CheckReport]:
    """The one-dimensional coefficient module of a modular pair (sigma,
    delta) over the op-cop Hopf algebra, together with the involution
    criterion: the twisted antipode composed with translation by sigma^{-1}
    squares to the identity iff the module is crossed modular.  Both sides
    of the equivalence are computed independently and reported.

    The module is returned even when it fails the crossed modular axioms
    (that failure is exactly what a pair not in involution looks like), so
    the construction must not go through the checked constructors.
    """
    f = h.field
    if not h.is_grouplike(sigma):
        raise ValueError("sigma must be a grouplike basis element")
    # a character of H is one of H^{op,cop} too: its values commute
    chi_m = _character(h, dict(h.counit) if delta is None else delta, "delta")
    delta = {i: col[0] for i, col in chi_m.cols.items()}
    hoc = op_cop(h)
    coaction = SparseMatrix(hoc.dim, 1, f, {0: {sigma: f.one}})
    module = CrossedModule(
        hoc, 1, chi_m, coaction, ("m",), name=f"k(sigma={h.basis[sigma]})"
    )
    sayd = verify_modular(module)

    # twisted antipode S_delta(x) = sum delta(x_(1)) S(x_(2)) on H itself
    cols = {}
    for j in range(h.dim):
        col: dict = {}
        for (a, b), c in h.sweedler(j, 2):
            da = delta.get(a)
            if not da:
                continue
            for s_idx, cs in h.antipode_of(b).items():
                vec_add_at(col, s_idx, c * da * cs)
        if col:
            cols[j] = col
    s_delta = SparseMatrix(h.dim, h.dim, f, cols)
    # left translation by sigma^{-1} = S(sigma) for a grouplike sigma
    sig_inv = h.antipode_of(sigma)
    cols = {}
    for j in range(h.dim):
        col: dict = {}
        for s_idx, cs in sig_inv.items():
            for p, cp in h.mult_pairs(s_idx, j):
                vec_add_at(col, p, cs * cp)
        cols[j] = col
    translate = SparseMatrix(h.dim, h.dim, f, cols)
    tw = translate @ s_delta
    involutive = tw @ tw == SparseMatrix.identity(h.dim, f)

    report = CheckReport(f"modular pair (sigma={h.basis[sigma]}, delta)")
    report.add(
        "involutive twisted antipode iff crossed modular coefficients",
        involutive == sayd.ok,
        f"involutive={involutive}, crossed modular={sayd.ok}",
    )
    module.in_involution = involutive
    return module, report


def from_yetter_drinfeld(
    h: HopfAlgebra, dim: int, action: SparseMatrix, yd_coaction: SparseMatrix,
    basis: Sequence[str] | None = None, name: str = "M_yd",
) -> CrossedModule:
    """Convert a left-left Yetter-Drinfeld module into a crossed module by
    composing the left coaction with the antipode: rho(m) = m_(0) (x) S(m_(-1)).

    Requires an involutive antipode; the Yetter-Drinfeld compatibility
    rho(h . m) = h_(1) m_(-1) S(h_(3)) (x) h_(2) m_(0) is verified first.
    yd_coaction maps M -> H (x) M, flat index (i, j) = i * dim + j.
    """
    f = h.field
    hd = h.dim
    if h.antipode @ h.antipode != SparseMatrix.identity(hd, f):
        raise ValueError("the antipode must be involutive for this conversion")
    if yd_coaction.nrows != hd * dim or yd_coaction.ncols != dim:
        raise ValueError("Yetter-Drinfeld coaction has wrong shape")

    # verify the YD condition columnwise
    lhs_cols = {}
    rhs_cols = {}
    for i in range(hd):
        legs = h.sweedler(i, 3)
        for j in range(dim):
            # lhs: coaction after action
            col: dict = {}
            for k, cact in (
                (k, c) for k, c in action.cols.get(i * dim + j, {}).items()
            ):
                for (m1, m0), cco in tensor_pairs(yd_coaction, k, dim):
                    vec_add_at(col, m1 * dim + m0, cact * cco)
            if col:
                lhs_cols[i * dim + j] = col
            col = {}
            for (a, b, c3), cleg in legs:
                for (m1, m0), cco in tensor_pairs(yd_coaction, j, dim):
                    for p1, c1 in h.mult_pairs(a, m1):
                        for s_idx, cs in h.antipode_of(c3).items():
                            for p2, c2 in h.mult_pairs(p1, s_idx):
                                for k, cact in action.cols.get(b * dim + m0, {}).items():
                                    vec_add_at(col, p2 * dim + k, cleg * cco * c1 * cs * c2 * cact)
            if col:
                rhs_cols[i * dim + j] = col
    if lhs_cols != rhs_cols:
        raise ValueError("input does not satisfy the Yetter-Drinfeld condition")

    cols = {}
    for j in range(dim):
        col: dict = {}
        for (m1, m0), c in tensor_pairs(yd_coaction, j, dim):
            for s_idx, cs in h.antipode_of(m1).items():
                vec_add_at(col, m0 * hd + s_idx, c * cs)
        if col:
            cols[j] = col
    coaction = SparseMatrix(dim * hd, dim, f, cols)
    m = CrossedModule(h, dim, action, coaction, basis, name=name)
    verify_crossed(m).require(m.name)
    return m


# ---------------------------------------------------------------------------
# induction and restriction along a Hopf subalgebra
# ---------------------------------------------------------------------------


def induce(sub: HopfSubalgebra, ambient: HopfAlgebra, n: CrossedModule) -> CrossedModule:
    """Induction H (x)_K N along an inclusion K -> H.

    Carrier: quotient of H (x) N by h iota(k) (x) m - h (x) k m; the ambient
    algebra acts by left multiplication on the first leg; the coaction is
    rho(h (x) m) = sum (h_(2) (x) m_(0)) (x) h_(3) iota(m_(1)) S(h_(1)).
    The expected dimension (dim H / dim K) * dim N (freeness over the
    subalgebra) is asserted.
    """
    k = sub.sub
    if n.h is not k:
        raise ValueError("module is not over the given subalgebra")
    h = ambient
    f = h.field
    hd, kd, nd = h.dim, k.dim, n.dim

    # h iota(k) (x) m - h (x) k m, one algebra generator k of the
    # subalgebra at a time
    tix = TensorIndex([hd, nd])
    q = QuotientSpace(hd * nd, f, (
        r for kv in algebra_generators(k, [{jk: f.one} for jk in range(kd)], k.name)
        for r in balancing_relators(tix, [(
            0, h.product_tables(sub.inclusion.apply(kv))[1],
            1, [n.act_vec(kv, {jm: f.one}) for jm in range(nd)],
        )])
    ))
    expected = (hd // kd) * nd
    if hd % kd or q.dim != expected:
        raise ValueError(
            f"induced module has dimension {q.dim}, expected {expected}"
        )

    # action of each ambient basis element, transported with well-definedness
    id_n = SparseMatrix.identity(nd, f)
    action = action_tensor(
        [q.induced_matrix(h.mult_matrices({g: f.one})[0].kron(id_n),
                          what=f"action of {h.basis[g]}")
         for g in range(hd)],
        q.dim, f,
    )

    # ambient coaction on H (x) N
    amb_cols = {}
    for ih in range(hd):
        for jm in range(nd):
            col: dict = {}
            for (j0, j1), cco in n.coact_pairs(jm):
                for i1, ci in sub.inclusion.cols.get(j1, {}).items():
                    for (b, p), c in h.crossed_legs(ih, i1):
                        vec_add_at(col, (b * nd + j0) * hd + p, cco * ci * c)
            if col:
                amb_cols[ih * nd + jm] = col
    amb_co = SparseMatrix(hd * nd * hd, hd * nd, f, amb_cols)
    coaction = quotient_coaction(q, amb_co, SparseMatrix.identity(hd, f),
                                 "the induced coaction")
    basis = tuple(
        f"[{h.basis[q.free_cols[t] // nd]}(x){n.basis[q.free_cols[t] % nd]}]"
        for t in range(q.dim)
    )
    out = CrossedModule(h, q.dim, action, coaction, basis, name=f"Ind({n.name})")
    verify_crossed(out).require(out.name)
    out.carrier = q  # section/projection used by isomorphism builders
    return out


# ---------------------------------------------------------------------------
# decomposition over group algebras
# ---------------------------------------------------------------------------


@dataclass
class GroupDecomposition:
    components: dict  # group element -> Subspace of M
    transversal: list
    modules: dict  # transversal element x -> M_x over the centralizer of x
    induced: dict  # transversal element -> CrossedModule over kG
    iso: SparseMatrix  # direct sum of induced pieces -> M
    modular: bool
    report: CheckReport


def decompose_group_case(m: CrossedModule) -> GroupDecomposition:
    """Split a crossed module over a group algebra kG into its coaction
    eigencomponents M_x = {v : rho(v) = v (x) x}, certify the conjugation
    rule g M_x <= M_{g x g^-1}, and build the explicit isomorphism from the
    direct sum of modules induced from centralizer subalgebras."""
    h = m.h
    g: FiniteGroup = getattr(h, "group", None)
    if g is None:
        raise ValueError("decomposition needs a group algebra")
    f = m.field
    hd, md = h.dim, m.dim
    rep = CheckReport(f"group decomposition of {m.name}")

    components = {}
    total = []
    for x in range(g.order):
        cols = {}
        for j in range(md):
            col = dict(m.coaction.cols.get(j, {}))
            vec_add_at(col, j * hd + x, -f.one)
            if col:
                cols[j] = col
        diff = SparseMatrix(md * hd, md, f, cols)
        _, kernel = rank_kernel(diff)
        comp = Subspace(md, f, kernel)
        if comp.dim:
            components[x] = comp
            total.extend(comp.basis)
    span = Subspace(md, f, total)
    rep.add("components sum to the whole module",
            span.dim == md and sum(c.dim for c in components.values()) == md)

    def unconjugated():
        for x, comp in components.items():
            for a in range(g.order):
                tcomp = components.get(g.conjugate(a, x))
                for v in comp.basis:
                    img = m.act_vec({a: f.one}, v)
                    if img and (tcomp is None or not tcomp.contains(img)):
                        yield f"g={g.labels[a]}, x={g.labels[x]}"

    rep.check("action permutes components by conjugation", unconjugated())

    conj = conjugacy_data(g)
    modules = {}
    induced = {}
    blocks = []
    for x in conj.transversal:
        cd = conj.centralizers[x]
        sub = group_subalgebra(h, cd.elements)
        comp = components.get(x)
        if comp is None or comp.dim == 0:
            continue
        # M_x as a crossed module over the centralizer subalgebra
        kd = sub.sub.dim
        action = action_tensor(
            [comp.induced_matrix(m.act_matrix(a), "component is not centralizer-stable")
             for a in cd.elements],
            comp.dim, f,
        )
        xpos = cd.elements.index(x)
        co_cols = {
            t: {t * kd + xpos: f.one} for t in range(comp.dim)
        }
        coaction = SparseMatrix(comp.dim * kd, comp.dim, f, co_cols)
        mx = CrossedModule(sub.sub, comp.dim, action, coaction,
                           name=f"{m.name}_{g.labels[x]}")
        verify_crossed(mx).require(mx.name)
        modules[x] = mx
        ind = induce(sub, h, mx)
        induced[x] = ind
        # the evaluation map Ind -> M: class of (h (x) v) -> h . v
        q = ind.carrier
        cols = {}
        for t in range(q.dim):
            amb = q.free_cols[t]
            ih, jm = amb // comp.dim, amb % comp.dim
            img = m.act_vec({ih: f.one}, comp.basis[jm])
            if img:
                cols[t] = img
        blocks.append(SparseMatrix(md, q.dim, f, cols))

    if blocks:
        iso = blocks[0]
        for b in blocks[1:]:
            iso = iso.hstack(b)
    else:
        iso = SparseMatrix(md, 0, f, {})
    rep.add("evaluation map is bijective",
            iso.ncols == md and rank(iso) == md)

    # H-linearity and colinearity of the evaluation map against the direct sum
    pieces = []  # (x, the block of iso on Ind_x, Ind_x)
    off = 0
    for x, ind in induced.items():
        block = SparseMatrix(
            md, ind.dim, f, {t: iso.column(off + t) for t in range(ind.dim)}
        )
        pieces.append((x, block, ind))
        off += ind.dim
    idh = SparseMatrix.identity(hd, f)
    rep.check("evaluation map is H-linear", (
        f"x={g.labels[x]}" for x, block, ind in pieces
        if m.action @ idh.kron(block) != block @ ind.action))
    rep.check("evaluation map is H-colinear", (
        f"x={g.labels[x]}" for x, block, ind in pieces
        if m.coaction @ block != block.kron(idh) @ ind.coaction))

    nontrivial = next((
        f"{g.labels[x]} acts nontrivially on its component"
        for x, comp in components.items() for v in comp.basis
        if m.act_vec({x: f.one}, v) != v), None)
    modular = nontrivial is None
    umod = u_map(m) == SparseMatrix.identity(md, f)
    rep.add("modularity criterion agrees with u = id", modular == umod, nontrivial)
    return GroupDecomposition(components, conj.transversal, modules, induced, iso,
                              modular, rep)


# ---------------------------------------------------------------------------
# coinvariants filtration
# ---------------------------------------------------------------------------


@dataclass
class Filtration:
    steps: list  # Subspaces of the module, increasing
    stabilized_at: int
    exhaustive: bool


def coinvariants_filtration(m: CrossedModule) -> Filtration:
    """F_0 = coaction coinvariants; F_{p+1} = preimage of the coinvariants of
    M / F_p.  Every step is verified to be an action-stable subcomodule
    (violations raise).  Returns the steps, the stabilization index and
    whether the filtration is exhaustive.
    """
    h, f = m.h, m.field
    hd, md = h.dim, m.dim

    def coinvariants_of(proj_q: QuotientSpace | None) -> list:
        """Kernel vectors of (rho - (x)1) on M/F_p, lifted to M."""
        if proj_q is None:
            _, kernel = rank_kernel(m.coaction - trivial_coaction(h, md))
            return kernel
        co_q = quotient_coaction(proj_q, m.coaction, SparseMatrix.identity(hd, f),
                                 "the coaction on M / F_p")
        _, kernel = rank_kernel(co_q - trivial_coaction(h, proj_q.dim))
        # lift back: the preimage is spanned by F_p plus section lifts
        return [proj_q.section_matrix().apply(v) for v in kernel]

    steps = []
    current_vectors: list = []
    proj_q = None
    p = 0
    while True:
        new_vecs = coinvariants_of(proj_q)
        vectors = current_vectors + new_vecs
        step = Subspace(md, f, vectors)
        if steps and step.dim == steps[-1].dim:
            stabilized = p - 1
            break
        steps.append(step)
        # verify the step is an H-submodule and a subcomodule
        for i in range(hd):
            step.induced_matrix(m.act_matrix(i), f"filtration step {p} is not "
                                f"stable under the action of {h.basis[i]}")
        sub_coaction(step, m.coaction, hd, f"filtration step {p} is not a subcomodule")
        if step.dim == md:
            stabilized = p
            break
        current_vectors = vectors
        proj_q = QuotientSpace(md, f, step.basis)
        p += 1
    return Filtration(steps, stabilized, steps[-1].dim == md)


def associated_graded(m: CrossedModule, filt: Filtration) -> list:
    """gr_p = F_p / F_{p-1} as crossed modules with trivial coaction.

    The coaction is restricted to F_p and descended to the quotient, where
    it is verified to be trivial; the action goes the same way.
    """
    h, f = m.h, m.field
    hd = h.dim
    out = []
    for p, step in enumerate(filt.steps):
        rel = []
        for v in filt.steps[p - 1].basis if p else ():
            coords = step.coords(v)
            if coords is None:
                raise LinAlgError(f"filtration step {p - 1} is not inside step {p}")
            rel.append(coords)
        q = QuotientSpace(step.dim, f, rel)
        # induced action in the coordinates of F_p, pushed to F_p / F_{p-1}
        action = action_tensor(
            [q.induced_matrix(
                step.induced_matrix(m.act_matrix(i),
                                    f"filtration step {p} is not action-stable"),
                what=f"action of {h.basis[i]}")
             for i in range(hd)],
            q.dim, f,
        )
        # the coaction restricts to F_p, descends to F_p / F_{p-1}, and is
        # trivial there
        bad = f"graded piece {p} does not have trivial coaction"
        coaction = quotient_coaction(q, sub_coaction(step, m.coaction, hd, bad),
                                     SparseMatrix.identity(hd, f),
                                     f"the coaction on graded piece {p}")
        if coaction != trivial_coaction(h, q.dim):
            raise LinAlgError(bad)
        gr = CrossedModule(h, q.dim, action, coaction, name=f"gr_{p}({m.name})")
        verify_crossed(gr).require(gr.name)
        out.append(gr)
    return out


def e1_page_report(m: CrossedModule, max_degree: int) -> dict:
    """Cyclic homology dimensions of every graded piece of the coinvariants
    filtration (first-page data for the induced filtration of the cyclic
    complex).  Only meaningful when the filtration is exhaustive; the
    exhaustive flag is part of the report."""
    from .cyclic import build_cyclic, hc_connes

    filt = coinvariants_filtration(m)
    graded = associated_graded(m, filt)
    pages = []
    for p, gr in enumerate(graded):
        if gr.dim == 0:
            pages.append({"p": p, "dim": 0, "hc": [0] * (max_degree + 1)})
            continue
        z = build_cyclic(m.h, gr, max_degree + 1)
        pages.append({"p": p, "dim": gr.dim, "hc": hc_connes(z, 0, max_degree)})
    return {
        "exhaustive": filt.exhaustive,
        "stabilized_at": filt.stabilized_at,
        "step_dims": [s.dim for s in filt.steps],
        "pages": pages,
    }


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def crossed_to_json(m: CrossedModule) -> dict:
    """Portable description: action triples [i, j, k, c] mean
    e_i . m_j contains c * m_k; coaction triples [j, k, i, c] mean
    rho(m_j) contains c * m_k (x) e_i."""
    action = []
    for flat, col in sorted(m.action.cols.items()):
        i, j = divmod(flat, m.dim)
        for k in sorted(col):
            action.append([i, j, k, str(col[k])])
    coaction = []
    for j, col in sorted(m.coaction.cols.items()):
        for flat in sorted(col):
            k, i = divmod(flat, m.h.dim)
            coaction.append([j, k, i, str(col[flat])])
    return {
        "dim": m.dim,
        "basis": list(m.basis),
        "name": m.name,
        "action": action,
        "coaction": coaction,
    }


def crossed_from_json(h: HopfAlgebra, doc: dict) -> CrossedModule:
    f = h.field
    dim = int(doc["dim"])
    act_cols: dict = {}
    for i, j, k, c in doc["action"]:
        vec_add_at(act_cols.setdefault(int(i) * dim + int(j), {}), int(k), f.coerce(c))
    co_cols: dict = {}
    for j, k, i, c in doc["coaction"]:
        vec_add_at(co_cols.setdefault(int(j), {}), int(k) * h.dim + int(i), f.coerce(c))
    m = CrossedModule(
        h,
        dim,
        SparseMatrix(dim, h.dim * dim, f,
                     {key: col for key, col in act_cols.items() if col}),
        SparseMatrix(dim * h.dim, dim, f,
                     {key: col for key, col in co_cols.items() if col}),
        doc.get("basis"),
        name=doc.get("name", "M"),
    )
    verify_crossed(m).require(m.name)
    return m
