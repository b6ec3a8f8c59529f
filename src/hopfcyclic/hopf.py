"""Finite-dimensional Hopf algebras presented by sparse structure tensors.

A Hopf algebra here is the data (mult, unit, comult, counit, antipode) over an
exact field, with the seven axiom identities checked as exact matrix
identities (associativity, unit, coassociativity, counit, multiplicativity of
the comultiplication and of the counit, and the antipode identity).

Index conventions: a tensor power H^(x)n is flattened in row-major order, so
the basis tuple (i_1, ..., i_n) has flat index sum i_k * d^(n-k).  The
multiplication matrix has shape (d, d^2) with column i*d+j holding e_i e_j;
the comultiplication has shape (d^2, d).

Sweedler-style scalar accessors (`mult_pairs`, `sweedler`, `antipode_of`) are
the workhorses used by the cyclic-object builders: operators on tensor powers
are assembled column by column from them, never by composing Kronecker
products of the full structure tensors, so memory stays proportional to the
number of nonzero entries of the result.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .linalg import (
    QQ,
    Field,
    LinAlgError,
    QuotientSpace,
    SparseMatrix,
    Subspace,
    Vec,
    flip_matrix,
    vec_add_at,
    vec_iadd_scaled,
)
from .reporting import CheckReport


# ---------------------------------------------------------------------------
# finite groups
# ---------------------------------------------------------------------------


class FiniteGroup:
    """A finite group given by its multiplication table.

    table[i][j] is the index of the product (element i) * (element j).
    Closure, associativity, identity and inverses are verified up front.
    """

    def __init__(self, table: Sequence[Sequence[int]], labels: Sequence[str] | None = None):
        n = len(table)
        self.table = tuple(tuple(row) for row in table)
        if any(len(row) != n for row in self.table):
            raise ValueError("multiplication table must be square")
        if any(not (0 <= x < n) for row in self.table for x in row):
            raise ValueError("table entry out of range (closure fails)")
        ident = None
        for e in range(n):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(n)):
                ident = e
                break
        if ident is None:
            raise ValueError("no identity element")
        self.identity = ident
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        raise ValueError(f"associativity fails at ({a},{b},{c})")
        self._inv = [None] * n
        for a in range(n):
            for b in range(n):
                if self.table[a][b] == ident and self.table[b][a] == ident:
                    self._inv[a] = b
                    break
            if self._inv[a] is None:
                raise ValueError(f"element {a} has no inverse")
        self.order = n
        self.labels = tuple(labels) if labels is not None else tuple(
            f"g{i}" for i in range(n)
        )
        if len(self.labels) != n:
            raise ValueError("label count mismatch")

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def conjugate(self, g: int, x: int) -> int:
        """g x g^{-1}."""
        return self.mul(self.mul(g, x), self.inv(g))

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.mul(x, a)
            k += 1
        return k

    def is_abelian(self) -> bool:
        return all(
            self.table[a][b] == self.table[b][a]
            for a in range(self.order)
            for b in range(a)
        )

    def __repr__(self):
        return f"<FiniteGroup order {self.order}>"

    # -- constructors --------------------------------------------------------

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        labels = ["1"] + [f"g{'' if k == 1 else '^' + str(k)}" for k in range(1, n)]
        return cls(table, labels)

    @classmethod
    def direct_product(cls, g: "FiniteGroup", h: "FiniteGroup") -> "FiniteGroup":
        pairs = list(itertools.product(range(g.order), range(h.order)))
        index = {p: k for k, p in enumerate(pairs)}
        table = [
            [index[(g.mul(a1, b1), h.mul(a2, b2))] for (b1, b2) in pairs]
            for (a1, a2) in pairs
        ]
        labels = [f"({g.labels[a]},{h.labels[b]})" for a, b in pairs]
        return cls(table, labels)

    @classmethod
    def from_permutations(cls, perms: Sequence[tuple], labels: Sequence[str] | None = None) -> "FiniteGroup":
        """Group generated by composition of the given permutation tuples
        (must already be closed; composition (p*q)(x) = p(q(x)))."""
        index = {p: k for k, p in enumerate(perms)}
        n = len(perms)
        table = []
        for p in perms:
            row = []
            for q in perms:
                pq = tuple(p[q[x]] for x in range(len(p)))
                if pq not in index:
                    raise ValueError("permutation family is not closed")
                row.append(index[pq])
            table.append(row)
        return cls(table, labels)

    @classmethod
    def symmetric(cls, n: int) -> "FiniteGroup":
        perms = sorted(itertools.permutations(range(n)))
        labels = []
        for p in perms:
            cyc = _cycle_label(p)
            labels.append(cyc)
        return cls.from_permutations(perms, labels)

    @classmethod
    def dihedral(cls, n: int) -> "FiniteGroup":
        """Symmetries of a regular n-gon as permutations of the vertices."""
        rots = [tuple((x + k) % n for x in range(n)) for k in range(n)]
        refls = [tuple((k - x) % n for x in range(n)) for k in range(n)]
        perms = rots + refls
        labels = [f"r{k}" for k in range(n)] + [f"s{k}" for k in range(n)]
        return cls.from_permutations(perms, labels)


def _cycle_label(p: tuple) -> str:
    seen = set()
    parts = []
    for start in range(len(p)):
        if start in seen or p[start] == start:
            continue
        cyc = [start]
        seen.add(start)
        x = p[start]
        while x != start:
            cyc.append(x)
            seen.add(x)
            x = p[x]
        parts.append("(" + "".join(str(v + 1) for v in cyc) + ")")
    return "".join(parts) if parts else "e"


@dataclass
class CentralizerData:
    """Centralizer of x with the quotient by the cyclic subgroup of x."""

    x: int
    elements: list  # indices into the ambient group
    group: FiniteGroup  # the centralizer as a group in its own right
    quotient: FiniteGroup  # centralizer / <x>
    coset_of: list  # position in `elements` -> index in `quotient`
    coset_reps: list  # quotient index -> position in `elements`


@dataclass
class ConjugacyData:
    classes: list
    transversal: list
    centralizers: dict  # x -> CentralizerData


def conjugacy_data(g: FiniteGroup) -> ConjugacyData:
    """Conjugacy classes, a transversal, centralizers and their quotients
    by the central cyclic subgroup generated by the class representative."""
    seen = set()
    classes = []
    for x in range(g.order):
        if x in seen:
            continue
        cls_ = sorted({g.conjugate(a, x) for a in range(g.order)})
        classes.append(cls_)
        seen.update(cls_)
    transversal = [c[0] for c in classes]
    cents = {}
    for x in transversal:
        elems = [a for a in range(g.order) if g.mul(a, x) == g.mul(x, a)]
        pos = {a: k for k, a in enumerate(elems)}
        table = [[pos[g.mul(a, b)] for b in elems] for a in elems]
        cent = FiniteGroup(table, [g.labels[a] for a in elems])
        # cyclic subgroup <x> inside the centralizer (x is central there)
        cyc = []
        y = g.identity
        while True:
            cyc.append(pos[y])
            y = g.mul(y, x)
            if y == g.identity:
                break
        cyc_set = set(cyc)
        coset_of = [None] * len(elems)
        reps = []
        for k in range(len(elems)):
            if coset_of[k] is not None:
                continue
            c = len(reps)
            reps.append(k)
            for z in cyc_set:
                coset_of[cent.mul(z, k)] = c
        qtable = [
            [coset_of[cent.mul(reps[i], reps[j])] for j in range(len(reps))]
            for i in range(len(reps))
        ]
        quotient = FiniteGroup(qtable, [cent.labels[reps[i]] for i in range(len(reps))])
        cents[x] = CentralizerData(x, elems, cent, quotient, coset_of, reps)
    return ConjugacyData(classes, transversal, cents)


# ---------------------------------------------------------------------------
# tensor index bookkeeping
# ---------------------------------------------------------------------------


class TensorIndex:
    """Row-major flattening of a mixed tensor basis: the last slot varies
    fastest, so slot k has stride dims[k+1] * ... * dims[-1]."""

    __slots__ = ("dims", "size", "strides")

    def __init__(self, dims: Sequence[int]):
        self.dims = tuple(dims)
        strides = []
        s = 1
        for d in reversed(self.dims):
            strides.append(s)
            s *= d
        self.strides = tuple(reversed(strides))
        self.size = s

    def flatten(self, tup: Sequence[int]) -> int:
        return sum(map(mul, tup, self.strides))

    def unflatten(self, idx: int) -> tuple:
        out = []
        for s in self.strides:
            out.append(idx // s)
            idx %= s
        return tuple(out)


# ---------------------------------------------------------------------------
# Hopf algebras
# ---------------------------------------------------------------------------


class HopfAlgebra:
    """Structure-tensor presentation of a finite-dimensional Hopf algebra."""

    def __init__(
        self,
        field: Field,
        basis: Sequence[str],
        mult: SparseMatrix,
        unit: Vec,
        comult: SparseMatrix,
        counit: Vec,
        antipode: SparseMatrix,
        name: str = "",
    ):
        self.field = field
        self.basis = tuple(basis)
        d = len(self.basis)
        self.dim = d
        if mult.nrows != d or mult.ncols != d * d:
            raise ValueError("multiplication tensor has wrong shape")
        if comult.nrows != d * d or comult.ncols != d:
            raise ValueError("comultiplication tensor has wrong shape")
        if antipode.nrows != d or antipode.ncols != d:
            raise ValueError("antipode has wrong shape")
        self.mult = mult
        self.unit = {i: field.coerce(v) for i, v in unit.items()}
        self.comult = comult
        self.counit = {i: field.coerce(v) for i, v in counit.items()}
        self.antipode = antipode
        self.name = name or "H"
        self._sweedler_cache: dict = {}
        self._grouplike_cache: dict = {}

    def __repr__(self):
        return f"<HopfAlgebra {self.name} dim {self.dim} over {self.field.name}>"

    # -- scalar accessors ----------------------------------------------------

    def mult_pairs(self, i: int, j: int) -> list:
        """e_i * e_j as [(k, coeff)]."""
        return list(self.mult.cols.get(i * self.dim + j, {}).items())

    def product_vec(self, u: Vec, v: Vec) -> Vec:
        out: dict = {}
        d = self.dim
        cols = self.mult.cols
        for i, a in u.items():
            base = i * d
            for j, b in v.items():
                col = cols.get(base + j)
                if col:
                    vec_iadd_scaled(out, col, a * b)
        return out

    def comult_pairs(self, i: int) -> list:
        d = self.dim
        return [
            ((idx // d, idx % d), c) for idx, c in self.comult.cols.get(i, {}).items()
        ]

    def sweedler(self, i: int, parts: int) -> list:
        """Iterated comultiplication of e_i into `parts` tensor legs,
        as [(leg_tuple, coeff)]; parts = 1 is the identity."""
        if parts < 1:
            raise ValueError("parts must be >= 1")
        key = (i, parts)
        cached = self._sweedler_cache.get(key)
        if cached is not None:
            return cached
        if parts == 1:
            out = [((i,), self.field.one)]
        else:
            prev = self.sweedler(i, parts - 1)
            acc: dict = {}
            for tup, c in prev:
                for (a, b), c2 in self.comult_pairs(tup[0]):
                    vec_add_at(acc, (a, b) + tup[1:], c * c2)
            out = list(acc.items())
        self._sweedler_cache[key] = out
        return out

    def counit_of(self, i: int):
        return self.counit.get(i, self.field.zero)

    def counit_vec(self, v: Vec):
        s = self.field.zero
        for i, c in v.items():
            e = self.counit.get(i)
            if e:
                s = s + c * e
        return s

    def antipode_of(self, i: int) -> Vec:
        return self.antipode.column(i)

    def antipode_vec(self, v: Vec) -> Vec:
        return self.antipode.apply(v)

    def unit_matrix(self) -> SparseMatrix:
        return SparseMatrix(self.dim, 1, self.field, {0: dict(self.unit)} if self.unit else {})

    def counit_matrix(self) -> SparseMatrix:
        cols = {i: {0: v} for i, v in self.counit.items()}
        return SparseMatrix(1, self.dim, self.field, cols)

    def is_grouplike(self, i: int) -> bool:
        """Whether basis element i satisfies comult(x) = x (x) x, counit(x)=1."""
        got = self._grouplike_cache.get(i)
        if got is None:
            d = self.dim
            got = self.comult.column(i) == {i * d + i: self.field.one} and self.counit_of(
                i
            ) == self.field.one
            self._grouplike_cache[i] = got
        return got

    def is_cocommutative(self) -> bool:
        return flip_matrix(self.dim, self.dim, self.field) @ self.comult == self.comult

    def label_tuple(self, tup: Sequence[int]) -> str:
        return "(" + ",".join(self.basis[i] for i in tup) + ")"


def verify_hopf(h: HopfAlgebra) -> CheckReport:
    """The seven Hopf axiom families as exact matrix identities."""
    rep = CheckReport(f"Hopf axioms for {h.name}")
    d = h.dim
    f = h.field
    idm = SparseMatrix.identity(d, f)
    id2 = SparseMatrix.identity(d * d, f)
    unit_m = h.unit_matrix()
    counit_m = h.counit_matrix()

    def witness_col(a: SparseMatrix, b: SparseMatrix, index: TensorIndex) -> str | None:
        for j in range(a.ncols):
            if a.cols.get(j, {}) != b.cols.get(j, {}):
                return h.label_tuple(index.unflatten(j))
        return None

    t3 = TensorIndex([d] * 3)
    t1 = TensorIndex([d])

    lhs = h.mult @ h.mult.kron(idm)
    rhs = h.mult @ idm.kron(h.mult)
    rep.add("associativity", lhs == rhs, witness_col(lhs, rhs, t3))

    lu = h.mult @ unit_m.kron(idm)
    ru = h.mult @ idm.kron(unit_m)
    rep.add("left unit", lu == idm, witness_col(lu, idm, t1))
    rep.add("right unit", ru == idm, witness_col(ru, idm, t1))

    lhs = h.comult.kron(idm) @ h.comult
    rhs = idm.kron(h.comult) @ h.comult
    rep.add("coassociativity", lhs == rhs, witness_col(lhs, rhs, t1))

    lc = counit_m.kron(idm) @ h.comult
    rc = idm.kron(counit_m) @ h.comult
    rep.add("left counit", lc == idm, witness_col(lc, idm, t1))
    rep.add("right counit", rc == idm, witness_col(rc, idm, t1))

    mid_flip = idm.kron(flip_matrix(d, d, f)).kron(idm)
    lhs = h.comult @ h.mult
    rhs = h.mult.kron(h.mult) @ mid_flip @ h.comult.kron(h.comult)
    t2 = TensorIndex([d] * 2)
    rep.add("comultiplication is multiplicative", lhs == rhs, witness_col(lhs, rhs, t2))
    rep.add(
        "comultiplication of the unit",
        h.comult @ unit_m == unit_m.kron(unit_m),
        None,
    )

    lhs = counit_m @ h.mult
    rhs = counit_m.kron(counit_m)
    rep.add("counit is multiplicative", lhs == rhs, witness_col(lhs, rhs, t2))
    rep.add("counit of the unit", h.counit_vec(h.unit) == f.one, None)

    eta_eps = unit_m @ counit_m
    ls = h.mult @ h.antipode.kron(idm) @ h.comult
    rs = h.mult @ idm.kron(h.antipode) @ h.comult
    rep.add("left antipode identity", ls == eta_eps, witness_col(ls, eta_eps, t1))
    rep.add("right antipode identity", rs == eta_eps, witness_col(rs, eta_eps, t1))
    return rep


def group_algebra(g: FiniteGroup, field: Field = QQ, name: str | None = None) -> HopfAlgebra:
    """The group algebra kG: grouplike basis, antipode by inversion."""
    n = g.order
    one = field.one
    mult = SparseMatrix(
        n,
        n * n,
        field,
        {i * n + j: {g.mul(i, j): one} for i in range(n) for j in range(n)},
    )
    comult = SparseMatrix(n * n, n, field, {i: {i * n + i: one} for i in range(n)})
    counit = {i: one for i in range(n)}
    antipode = SparseMatrix(n, n, field, {i: {g.inv(i): one} for i in range(n)})
    unit = {g.identity: one}
    h = HopfAlgebra(field, g.labels, mult, unit, comult, counit, antipode, name or "k[G]")
    h.group = g  # group algebras remember their group for decomposition
    verify_hopf(h).require(h.name)
    return h


def op_cop(h: HopfAlgebra) -> HopfAlgebra:
    """Opposite multiplication and opposite comultiplication (same antipode)."""
    fl = flip_matrix(h.dim, h.dim, h.field)
    out = HopfAlgebra(
        h.field,
        h.basis,
        h.mult @ fl,
        h.unit,
        fl @ h.comult,
        h.counit,
        h.antipode,
        name=f"{h.name}^opcop",
    )
    verify_hopf(out).require(out.name)
    return out


# ---------------------------------------------------------------------------
# diagonal module structure and the Hopf-module straightening map
# ---------------------------------------------------------------------------


def diagonal_power(h: HopfAlgebra, n: int) -> SparseMatrix:
    """Right action of H on H^(x)(n+1) hitting every leg through the
    iterated comultiplication: (h^0, ..., h^n) . h = sum (h^0 h_(1), ...).

    Returned as a matrix H^(x)(n+1) (x) H -> H^(x)(n+1); the module axioms
    are verified as exact matrix identities.
    """
    d = h.dim
    ti = TensorIndex([d] * (n + 1))
    src = TensorIndex([d] * (n + 1) + [d])
    cols = {}
    for flat_tuple in range(ti.size):
        tup = ti.unflatten(flat_tuple)
        for acting in range(d):
            col: dict = {}
            for legs, c in h.sweedler(acting, n + 1):
                # multiply leg k into slot k
                terms = [(tup, c)]
                for k in range(n + 1):
                    nxt = []
                    for cur, cc in terms:
                        for out_idx, mc in h.mult_pairs(cur[k], legs[k]):
                            nxt.append((cur[:k] + (out_idx,) + cur[k + 1 :], cc * mc))
                    terms = nxt
                for cur, cc in terms:
                    vec_add_at(col, ti.flatten(cur), cc)
            if col:
                cols[src.flatten(tup + (acting,))] = col
    act = SparseMatrix(ti.size, ti.size * d, h.field, cols)
    # module axioms: act o (act (x) id_H) = act o (id (x) mult); unit acts as id
    idt = SparseMatrix.identity(ti.size, h.field)
    lhs = act @ act.kron(SparseMatrix.identity(d, h.field))
    rhs = act @ idt.kron(h.mult)
    if lhs != rhs:
        raise LinAlgError("diagonal action is not associative")
    if act @ idt.kron(h.unit_matrix()) != idt:
        raise LinAlgError("unit does not act as identity in the diagonal action")
    return act


def hopf_module_phi(h: HopfAlgebra, n: int) -> tuple:
    """The straightening isomorphism of the free Hopf module H^(x)n (x) H.

    phi(x^1, ..., x^n, g) = sum (x^1 g_(1), ..., x^n g_(n), g_(n+1)) and its
    inverse unwinds with the antipode.  Both are returned as matrices on
    H^(x)(n+1); mutual inverseness and the intertwining of the last-factor
    right action with the diagonal action are verified exactly.
    """
    d = h.dim
    ti = TensorIndex([d] * (n + 1))
    f = h.field
    cols_phi = {}
    cols_inv = {}
    for flat in range(ti.size):
        tup = ti.unflatten(flat)
        xs, g = tup[:n], tup[n]
        col: dict = {}
        for legs, c in h.sweedler(g, n + 1):
            terms = [((), c)]
            for k in range(n):
                nxt = []
                for cur, cc in terms:
                    for out_idx, mc in h.mult_pairs(xs[k], legs[k]):
                        nxt.append((cur + (out_idx,), cc * mc))
                terms = nxt
            for cur, cc in terms:
                vec_add_at(col, ti.flatten(cur + (legs[n],)), cc)
        if col:
            cols_phi[flat] = col
        # inverse: slots x^k S(legs[n-k]) with the final leg passed through
        col = {}
        for legs, c in h.sweedler(g, n + 1):
            terms = [((), c)]
            for k in range(n):
                nxt = []
                for cur, cc in terms:
                    for s_idx, sc in h.antipode_of(legs[n - 1 - k]).items():
                        for out_idx, mc in h.mult_pairs(xs[k], s_idx):
                            nxt.append((cur + (out_idx,), cc * sc * mc))
                terms = nxt
            for cur, cc in terms:
                vec_add_at(col, ti.flatten(cur + (legs[n],)), cc)
        if col:
            cols_inv[flat] = col
    phi = SparseMatrix(ti.size, ti.size, f, cols_phi)
    phi_inv = SparseMatrix(ti.size, ti.size, f, cols_inv)
    ident = SparseMatrix.identity(ti.size, f)
    if phi @ phi_inv != ident or phi_inv @ phi != ident:
        raise LinAlgError("straightening maps are not mutually inverse")
    # intertwining: phi o (right mult on last factor) = diagonal action o (phi (x) id)
    act = diagonal_power(h, n)
    idn = SparseMatrix.identity(d**n, f)
    last_mult = idn.kron(h.mult)  # H^(x)n (x) H (x) H -> H^(x)(n+1)
    if phi @ last_mult != act @ phi.kron(SparseMatrix.identity(d, f)):
        raise LinAlgError("straightening does not intertwine the module structures")
    return phi, phi_inv


# ---------------------------------------------------------------------------
# Hopf subalgebras and quotients
# ---------------------------------------------------------------------------


@dataclass
class HopfSubalgebra:
    """A Hopf algebra together with a verified Hopf-algebra embedding."""

    sub: HopfAlgebra
    inclusion: SparseMatrix  # dim(ambient) x dim(sub)


def hopf_subalgebra(h: HopfAlgebra, k: HopfAlgebra, inclusion: SparseMatrix) -> HopfSubalgebra:
    """Verify that `inclusion` embeds k into h as a Hopf algebra."""
    if inclusion.nrows != h.dim or inclusion.ncols != k.dim:
        raise ValueError("inclusion has wrong shape")
    from .linalg import rank as _rank

    if _rank(inclusion) != k.dim:
        raise ValueError("inclusion is not injective")
    rep = CheckReport(f"embedding {k.name} in {h.name}")
    rep.add("multiplicative", inclusion @ k.mult == h.mult @ inclusion.kron(inclusion))
    rep.add("unital", inclusion.apply(k.unit) == h.unit)
    rep.add(
        "comultiplicative",
        inclusion.kron(inclusion) @ k.comult == h.comult @ inclusion,
    )
    rep.add(
        "counital",
        k.counit_matrix() == h.counit_matrix() @ inclusion,
    )
    rep.add("antipode", inclusion @ k.antipode == h.antipode @ inclusion)
    rep.require()
    return HopfSubalgebra(k, inclusion)


def group_subalgebra(h: HopfAlgebra, elements: Sequence[int]) -> HopfSubalgebra:
    """The group algebra of a subgroup of a group algebra's group, embedded
    by sending each subgroup element to the matching basis vector."""
    g: FiniteGroup = h.group
    pos = {a: k for k, a in enumerate(elements)}
    table = [[pos[g.mul(a, b)] for b in elements] for a in elements]
    sub_group = FiniteGroup(table, [g.labels[a] for a in elements])
    sub = group_algebra(sub_group, h.field, name=f"k[sub of {g.order}]")
    inc = SparseMatrix(
        h.dim, len(elements), h.field, {k: {a: h.field.one} for k, a in enumerate(elements)}
    )
    return hopf_subalgebra(h, sub, inc)


def augmentation_ideal_vectors(k: HopfAlgebra, inclusion: SparseMatrix) -> list:
    """Images in the ambient algebra of x - counit(x) 1 over the sub's basis."""
    ambient_unit = inclusion.apply(k.unit)
    out = []
    for j in range(k.dim):
        v = inclusion.column(j)
        eps = k.counit_of(j)
        if eps:
            vec_iadd_scaled(v, ambient_unit, -eps)
        if v:
            out.append(v)
    return out


def quotient_by_normal(h: HopfAlgebra, sub: HopfSubalgebra) -> tuple:
    """Quotient Hopf algebra H / H K^+ for a normal Hopf subalgebra K.

    Normality is certified by comparing the left and right ideals generated
    by the augmentation ideal K^+; the quotient structure maps are checked to
    kill the ideal (well-definedness) and the projection is checked to be a
    morphism of Hopf algebras.  Returns (quotient, projection matrix).
    """
    f = h.field
    k = sub.sub
    kplus = augmentation_ideal_vectors(k, sub.inclusion)
    left_gens = []
    right_gens = []
    for i in range(h.dim):
        e = {i: f.one}
        for v in kplus:
            left_gens.append(h.product_vec(e, v))
            right_gens.append(h.product_vec(v, e))
    left = Subspace(h.dim, f, left_gens)
    right = Subspace(h.dim, f, right_gens)
    if left.dim != right.dim or not all(right.contains(v) for v in left.basis):
        raise ValueError(f"{k.name} is not normal in {h.name}")

    q = QuotientSpace(h.dim, f, left_gens)
    proj = q.projection_matrix()
    sec = q.section_matrix()
    ideal = left.basis_matrix()

    # the ideal must be a two-sided ideal, a coideal, and antipode-stable
    checks = CheckReport(f"quotient of {h.name}")
    idh = SparseMatrix.identity(h.dim, f)
    checks.add("left ideal", (proj @ h.mult @ idh.kron(ideal)).is_zero())
    checks.add("right ideal", (proj @ h.mult @ ideal.kron(idh)).is_zero())
    checks.add("coideal", (proj.kron(proj) @ h.comult @ ideal).is_zero())
    checks.add(
        "counit kills ideal", (h.counit_matrix() @ ideal).is_zero()
    )
    checks.add("antipode preserves ideal", (proj @ h.antipode @ ideal).is_zero())
    checks.require()

    labels = [f"q{i}" for i in range(q.dim)]
    quot = HopfAlgebra(
        f,
        labels,
        proj @ h.mult @ sec.kron(sec),
        q.project_vec(h.unit),
        proj.kron(proj) @ h.comult @ sec,
        {
            i: h.counit_vec(q.section_vec(i))
            for i in range(q.dim)
            if h.counit_vec(q.section_vec(i))
        },
        proj @ h.antipode @ sec,
        name=f"{h.name}/ideal",
    )
    verify_hopf(quot).require(quot.name)
    # the projection must be a Hopf algebra map
    morph = CheckReport("projection is a Hopf map")
    morph.add("multiplicative", proj @ h.mult == quot.mult @ proj.kron(proj))
    morph.add("unital", proj.apply(h.unit) == quot.unit)
    morph.add("comultiplicative", proj.kron(proj) @ h.comult == quot.comult @ proj)
    morph.add("counital", quot.counit_matrix() @ proj == h.counit_matrix())
    morph.add("antipode", proj @ h.antipode == quot.antipode @ proj)
    morph.require()
    return quot, proj


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def _scal(field: Field, x) -> str:
    if field.characteristic == 0:
        return str(x)
    return str(x.v)


def hopf_to_json(h: HopfAlgebra) -> dict:
    d = h.dim
    return {
        "dim": d,
        "basis": list(h.basis),
        "mult": [
            [j // d, j % d, i, _scal(h.field, v)]
            for j, col in sorted(h.mult.cols.items())
            for i, v in sorted(col.items())
        ],
        "comult": [
            [j, i // d, i % d, _scal(h.field, v)]
            for j, col in sorted(h.comult.cols.items())
            for i, v in sorted(col.items())
        ],
        "unit": [_scal(h.field, h.unit.get(i, h.field.zero)) for i in range(d)],
        "counit": [_scal(h.field, h.counit.get(i, h.field.zero)) for i in range(d)],
        "antipode": [
            [i, j, _scal(h.field, v)]
            for j, col in sorted(h.antipode.cols.items())
            for i, v in sorted(col.items())
        ],
    }


def hopf_from_json(doc: dict, field: Field = QQ, name: str = "H") -> HopfAlgebra:
    """Parse {dim, basis, mult, comult, unit, counit, antipode}.

    mult entries are [i, j, k, c]: e_i e_j contains c e_k; comult entries are
    [i, j, k, c]: comult(e_i) contains c e_j (x) e_k; antipode entries are
    [i, j, c]: S(e_j) contains c e_i; unit and counit are dense coefficient
    lists.  Coefficients may be ints or strings like "2/3".
    """
    d = int(doc["dim"])
    basis = doc.get("basis") or [f"e{i}" for i in range(d)]
    if len(basis) != d:
        raise ValueError("basis length does not match dim")
    mult = SparseMatrix.from_entries(
        d, d * d, field, ((k, i * d + j, c) for i, j, k, c in doc["mult"])
    )
    comult = SparseMatrix.from_entries(
        d * d, d, field, ((j * d + k, i, c) for i, j, k, c in doc["comult"])
    )
    unit = {
        i: field.coerce(c) for i, c in enumerate(doc["unit"]) if field.coerce(c)
    }
    counit = {
        i: field.coerce(c) for i, c in enumerate(doc["counit"]) if field.coerce(c)
    }
    antipode = SparseMatrix.from_entries(
        d, d, field, ((i, j, c) for i, j, c in doc["antipode"])
    )
    h = HopfAlgebra(field, basis, mult, unit, comult, counit, antipode, name)
    verify_hopf(h).require(name)
    return h


def group_to_json(g: FiniteGroup) -> dict:
    return {"elements": list(g.labels), "table": [list(r) for r in g.table]}


def group_from_json(doc: dict) -> FiniteGroup:
    return FiniteGroup(doc["table"], doc.get("elements"))
