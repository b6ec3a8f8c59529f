"""Finite-dimensional algebras and Hopf algebras presented by sparse
structure tensors.

The algebra layer lives here: `AlgebraData` is a unital algebra given by its
multiplication tensor, with the product (`product_vec`, `mult_pairs`) that
every layer above uses, and `separability_element` is the one solver for
separability elements over a subalgebra.  `balancing_relators` generates the
relators of every balanced tensor product: relative carriers, A (x)_B A,
induction and the reduction by an augmentation ideal, each balanced over
the subalgebra generators that `algebra_generators` picks.  `HopfAlgebra`
is an `AlgebraData`, so a Hopf algebra is passed as it is wherever an
algebra is expected.

A Hopf algebra here is the data (mult, unit, comult, counit, antipode) over an
exact field, with the seven axiom identities checked as exact matrix
identities (associativity, unit, coassociativity, counit, multiplicativity of
the comultiplication and of the counit, and the antipode identity).

Index conventions: a tensor power H^(x)n is flattened in row-major order, so
the basis tuple (i_1, ..., i_n) has flat index sum i_k * d^(n-k).  The
multiplication matrix has shape (d, d^2) with column i*d+j holding e_i e_j;
the comultiplication has shape (d^2, d).  Every structure tensor has this
layout, input slots flattened into the column and output slots into the
row (an action i*dim M+j, a right action j*d+i), so one rule applies any of
them to adjacent slots of a flat index: `slot_map` sends the slots of
col = (high * ncols + j) * s + low at stride s to (high * nrows + i) * s +
low for each entry (i, c) of column j.  The faces, degeneracies and bar
differentials that apply one counit, product, action, comultiplication or
unit are this rule.

The slot operator comes in three forms: `slot_map` gives one column,
`slot_apply` applies it to a whole vector, and `slot_add` adds the whole
operator to a list of columns in one pass.  Operators on tensor powers are
assembled from these and the Sweedler-style scalar accessors (`mult_pairs`,
`sweedler`, `antipode_of`, the crossed legs h_(2) (x) h_(3) y S(h_(1)) of
`HopfAlgebra.crossed_legs`, and `tensor_pairs`, which splits a column of a
coproduct or coaction into its two legs); never by composing Kronecker
products of the full structure tensors, so memory stays proportional to
the number of nonzero entries of the result.
"""

from __future__ import annotations

import collections
import itertools
import json
from dataclasses import dataclass
from functools import reduce
from operator import mul
from typing import Iterator, Sequence

from .linalg import (
    QQ,
    Echelon,
    Field,
    QuotientSpace,
    SparseMatrix,
    Subspace,
    Vec,
    bilinear,
    flip_matrix,
    rank,
    solve,
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


def tensor_pairs(t: SparseMatrix, j: int, inner: int) -> list:
    """Column j of t, whose rows index A (x) B with dim B = inner, as
    [((a, b), coeff)]: a coproduct, a coaction or a tensor-square element
    split into its two legs."""
    return [(divmod(idx, inner), c) for idx, c in t.cols.get(j, {}).items()]


def slot_map(t: SparseMatrix, s: int, col: int) -> Vec:
    """Apply the structure tensor t to the adjacent slots of the flat index
    col whose lowest has stride s (see the index conventions above).  A
    counit drops a slot, a product or an action merges two, a
    comultiplication splits one, and a unit inserts one at stride s."""
    high, rest = divmod(col, t.ncols * s)
    j, low = divmod(rest, s)
    base = high * t.nrows
    out: Vec = {}
    for i, c in t.cols.get(j, {}).items():
        out[(base + i) * s + low] = c
    return out


def slot_apply(t: SparseMatrix, s: int, vec: Vec) -> Vec:
    """The sum of vec[col] * slot_map(t, s, col): ``slot_map`` extended
    linearly to a whole vector, accumulated inline as ``vec_apply`` does."""
    block, out_block, tcols = t.ncols * s, t.nrows * s, t.cols
    out: Vec = {}
    for col, c in vec.items():
        high, rest = divmod(col, block)
        j, low = divmod(rest, s)
        entries = tcols.get(j)
        if entries and c:
            base = high * out_block + low
            for i, x in entries.items():
                key = base + i * s
                w = out.get(key)
                if w is None:
                    out[key] = c * x
                else:
                    w = w + c * x
                    if w:
                        out[key] = w
                    else:
                        del out[key]
    return out


def slot_add(cols: list, t: SparseMatrix, s: int, c) -> None:
    """cols[col] += c * slot_map(t, s, col) for every col < len(cols), in
    place: the batched form of ``slot_map``.  Column (high * ncols + j) * s
    + low of every block is reached through slices of cols that run along
    the longer of the low and high axes, so no column is split by divmod
    and no temporary vector is built; entries that cancel are deleted, and
    c is a field scalar (an int times a GF(p) scalar is undefined)."""
    if not c:
        return
    block, out_block = t.ncols * s, t.nrows * s
    nblocks = len(cols) // block
    if s >= nblocks:  # a run of s adjacent columns per (high, j)
        runs = [(high * block, high * out_block) for high in range(nblocks)]
        col_step, key_step, length = 1, 1, s
    else:  # a run of nblocks columns, one per block, per (j, low)
        runs = [(low, low) for low in range(s)]
        col_step, key_step, length = block, out_block, nblocks
    terms = [(j * s, [(i * s, c * v) for i, v in col.items()])
             for j, col in t.cols.items()]
    for col0, key0 in runs:
        for offset, entries in terms:
            start = col0 + offset
            run = cols[start:start + col_step * length:col_step]
            for k, v in entries:
                first = key0 + k
                for key, acc in zip(range(first, first + key_step * length, key_step), run):
                    w = acc.get(key)
                    if w is None:
                        acc[key] = v
                    else:
                        w = w + v
                        if w:
                            acc[key] = w
                        else:
                            del acc[key]


def balancing_relators(tix: TensorIndex, junctions) -> Iterator[Vec]:
    """The relators of a balanced tensor product, on the flat indices of tix.

    Each junction (p, ptab, q, qtab) pairs slot p with slot q; ptab and qtab
    map a basis index of their slot to a vector of that slot.  For every
    basis tuple t, in flat order, and then for every junction in turn, this
    yields the relator "ptab[t[p]] put in slot p, minus qtab[t[q]] put in
    slot q", the other slots of t kept, when it is nonzero.  With the right
    and left products by a base element b in adjacent slots this is
    x b (x) y - x (x) b y; the outer legs are the junction (0, n), and p = q
    gives a one-slot relator such as b m - m b.
    """
    strides = tix.strides

    def shape(p, ptab, q, qtab) -> list:
        """[t[p]][t[q]] -> the relator at t as (offset from t, coeff) pairs:
        it depends on t only through t[p] and t[q], so it is summed once."""
        def relator(a, b) -> list:
            r: Vec = {(k - a) * strides[p]: c for k, c in ptab[a].items() if c}
            for k, c in qtab[b].items():
                vec_add_at(r, (k - b) * strides[q], -c)
            return list(r.items())
        return [[relator(a, b) if p != q or a == b else [] for b in range(len(qtab))]
                for a in range(len(ptab))]

    tables = [(p, q, shape(p, ptab, q, qtab)) for p, ptab, q, qtab in junctions]
    for idx, t in enumerate(itertools.product(*map(range, tix.dims))):
        for p, q, table in tables:
            entries = table[t[p]][t[q]]
            if entries:
                yield {idx + off: c for off, c in entries}


# ---------------------------------------------------------------------------
# algebras
# ---------------------------------------------------------------------------


class AlgebraData:
    """A finite-dimensional unital algebra given by its structure tensor.

    `mult` is d x d^2 with column i*d+j holding e_i e_j; `unit` is a sparse
    vector.  No axioms are assumed at construction; `galois.verify_algebra`
    checks them with witnesses.
    """

    def __init__(self, field: Field, basis: Sequence[str], mult: SparseMatrix,
                 unit: Vec, name: str = "A"):
        self.field = field
        self.basis = tuple(basis)
        self.dim = len(self.basis)
        if mult.nrows != self.dim or mult.ncols != self.dim * self.dim:
            raise ValueError("multiplication tensor has wrong shape")
        self.mult = mult
        self.unit = {i: field.coerce(c) for i, c in unit.items()}
        self.name = name

    def __repr__(self):
        return f"<AlgebraData {self.name} dim {self.dim}>"

    def mult_pairs(self, i: int, j: int) -> list:
        """e_i e_j as [(k, coeff)]."""
        return list(self.mult.cols.get(i * self.dim + j, {}).items())

    def product_vec(self, u: Vec, v: Vec) -> Vec:
        return bilinear(self.mult.cols, self.dim, u, v)

    def product_tables(self, v: Vec) -> tuple:
        """([v e_j], [e_j v]) over the basis: left and right multiplication
        by v, as the slot tables of `balancing_relators`."""
        one = self.field.one
        return ([self.product_vec(v, {j: one}) for j in range(self.dim)],
                [self.product_vec({j: one}, v) for j in range(self.dim)])

    def unit_matrix(self) -> SparseMatrix:
        return SparseMatrix(self.dim, 1, self.field, {0: dict(self.unit)} if self.unit else {})

    def mult_matrices(self, v: Vec) -> tuple:
        """Left and right multiplication by v as d x d matrices."""
        return tuple(SparseMatrix.from_columns(self.dim, self.field, t)
                     for t in self.product_tables(v))


def separability_element(b: AlgebraData, inner) -> Vec:
    """Solve for e in b (x)_C b, where C is the subalgebra generated by the
    vectors `inner` of b, with mult(e) = 1 and x e = e x for every x in b.

    The equations are posed on the balanced square, after certifying that
    each centrality constraint descends to it; the solution comes back as a
    b (x) b representative.  Raises ValueError when no solution exists (b
    is not separable over C).
    """
    f = b.field
    bd = b.dim
    one = f.one
    sq = TensorIndex([bd, bd])
    tables = [b.product_tables(v) for v in inner]
    q = QuotientSpace(bd * bd, f, (
        r for left, right in tables
        for r in balancing_relators(sq, [(0, right, 1, left)])
    ))
    sect = q.section_matrix()
    eye_b = SparseMatrix.identity(bd, f)
    rows: dict = {}
    mq = b.mult @ sect
    for s, col in mq.columns():
        for i, c in col.items():
            rows.setdefault(s, {})[i] = c
    offset = bd
    for x in range(bd):
        left, right = b.mult_matrices({x: one})
        move = left.kron(eye_b) - eye_b.kron(right)
        cq = q.induced_matrix(move, what="a centrality constraint on the balanced square")
        for s, col in cq.columns():
            for i, c in col.items():
                rows.setdefault(s, {})[offset + i] = c
        offset += q.dim
    system = SparseMatrix(offset, q.dim, f, rows)
    sol = solve(system, dict(b.unit))
    if sol is None:
        raise ValueError(
            f"{b.name} is not separable over the given base: "
            "it has no separability element"
        )
    return sect.apply(sol)


def algebra_generators(a: AlgebraData, vectors: Sequence[Vec], name: str = "the span") -> list:
    """Algebra generators of the unital subalgebra spanned by `vectors`.

    The generators are picked greedily in the given order: a vector already
    in the subalgebra generated so far (at first the scalars) is skipped,
    any other becomes a generator, and the span of words in the generators
    is closed again under right multiplication by each of them.  Balancing
    over these generators spans every balancing relator of the subalgebra:
    x bc (x) y - x (x) bc y is the c-relator at (xb, y) plus the b-relator
    at (x, cy).  Raises ValueError unless the closure has the dimension of
    the span, which certifies that the span is a unital subalgebra.
    """
    f = a.field
    target = Subspace(a.dim, f, vectors).dim
    ech = Echelon(f, a.dim, [], [])
    words: list = []  # a basis of the subalgebra generated so far
    gens: list = []
    pending: collections.deque = collections.deque()  # (word, generator) products to take

    def absorb(w: Vec) -> None:
        nonlocal ech
        r = ech.reduce(w)
        if r:
            ech = Echelon(f, a.dim, ech.pivots + [min(r)], ech.rows + [r])
            words.append(w)
            pending.extend((w, g) for g in gens)

    absorb(dict(a.unit))
    for v in vectors:
        if not ech.reduce(v):
            continue
        gens.append(v)
        pending.extend((w, v) for w in words)
        while pending:
            absorb(a.product_vec(*pending.popleft()))
    if len(words) != target:
        raise ValueError(f"{name} is not closed under multiplication in {a.name}")
    return gens


# ---------------------------------------------------------------------------
# Hopf algebras
# ---------------------------------------------------------------------------


class HopfAlgebra(AlgebraData):
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
        super().__init__(field, basis, mult, unit, name or "H")
        d = self.dim
        if comult.nrows != d * d or comult.ncols != d:
            raise ValueError("comultiplication tensor has wrong shape")
        if antipode.nrows != d or antipode.ncols != d:
            raise ValueError("antipode has wrong shape")
        self.comult = comult
        self.counit = {i: field.coerce(v) for i, v in counit.items()}
        self.antipode = antipode
        self._sweedler_cache: dict = {}
        self._legs_cache: dict = {}
        self._grouplike_cache: dict = {}

    def __repr__(self):
        return f"<HopfAlgebra {self.name} dim {self.dim} over {self.field.name}>"

    # -- scalar accessors ----------------------------------------------------

    def comult_pairs(self, i: int) -> list:
        return tensor_pairs(self.comult, i, self.dim)

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

    def crossed_legs(self, i: int, j: int) -> list:
        """sum h_(2) (x) h_(3) e_j S(h_(1)) for h = e_i, as [((b, p),
        coeff)]: the legs of the crossed compatibility, shared by every
        constructor of crossed modules."""
        key = (i, j)
        cached = self._legs_cache.get(key)
        if cached is None:
            acc: dict = {}
            for (a, b, c3), cleg in self.sweedler(i, 3):
                sa = self.antipode_of(a)
                for p1, c1 in self.mult_pairs(c3, j):
                    for s, cs in sa.items():
                        for p2, c2 in self.mult_pairs(p1, s):
                            vec_add_at(acc, (b, p2), cleg * c1 * cs * c2)
            cached = self._legs_cache[key] = list(acc.items())
        return cached

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


def mismatch_labels(a: SparseMatrix, b: SparseMatrix, *bases: Sequence[str]) -> Iterator[str]:
    """Labels "(x,y,...)" of the columns where a and b differ, in column
    order, when the columns index the tensor product of the given bases, as
    the failures of a matrix identity for `CheckReport.check`.  Columns are
    compared lazily, so a search stops at its first failure, and exactly as
    strictly as a == b: a stored empty column differs from none."""
    index = TensorIndex([len(labels) for labels in bases])
    return ("(" + ",".join(labels[i] for labels, i in zip(bases, index.unflatten(j))) + ")"
            for j in range(a.ncols) if a.cols.get(j) != b.cols.get(j))


def verify_hopf(h: HopfAlgebra) -> CheckReport:
    """The seven Hopf axiom families as exact matrix identities.  For the
    multiplicativity of the comultiplication, Delta(x) Delta(y) is a
    composite of slot operators on each basis pair x (x) y, so no Kronecker
    product has more than d^3 columns."""
    rep = CheckReport(f"Hopf axioms for {h.name}")
    d = h.dim
    f = h.field
    idm = SparseMatrix.identity(d, f)
    unit_m = h.unit_matrix()
    counit_m = h.counit_matrix()
    b1, b2, b3 = ((h.basis,) * n for n in (1, 2, 3))

    rep.check("associativity",
              mismatch_labels(h.mult @ h.mult.kron(idm), h.mult @ idm.kron(h.mult), *b3))
    rep.check("left unit", mismatch_labels(h.mult @ unit_m.kron(idm), idm, *b1))
    rep.check("right unit", mismatch_labels(h.mult @ idm.kron(unit_m), idm, *b1))
    rep.check("coassociativity", mismatch_labels(
        h.comult.kron(idm) @ h.comult, idm.kron(h.comult) @ h.comult, *b1))
    rep.check("left counit", mismatch_labels(counit_m.kron(idm) @ h.comult, idm, *b1))
    rep.check("right counit", mismatch_labels(idm.kron(counit_m) @ h.comult, idm, *b1))

    # (m (x) m)(1 (x) flip (x) 1)(comult (x) comult) on x (x) y: comultiply
    # y, then x, swap the middle legs, multiply the right legs, then the left
    steps = ((h.comult, 1), (h.comult, d * d), (flip_matrix(d, d, f), d),
             (h.mult, 1), (h.mult, d))
    rhs = SparseMatrix.from_columns(d * d, f, [
        reduce(lambda v, step: slot_apply(*step, v), steps, {col: f.one}) for col in range(d * d)])
    rep.check("comultiplication is multiplicative",
              mismatch_labels(h.comult @ h.mult, rhs, *b2))
    rep.add("comultiplication of the unit", h.comult @ unit_m == unit_m.kron(unit_m))
    rep.check("counit is multiplicative",
              mismatch_labels(counit_m @ h.mult, counit_m.kron(counit_m), *b2))
    rep.add("counit of the unit", h.counit_vec(h.unit) == f.one)

    eta_eps = unit_m @ counit_m
    ls = h.mult @ h.antipode.kron(idm) @ h.comult
    rs = h.mult @ idm.kron(h.antipode) @ h.comult
    rep.check("left antipode identity", mismatch_labels(ls, eta_eps, *b1))
    rep.check("right antipode identity", mismatch_labels(rs, eta_eps, *b1))
    return rep


def verify_hopf_map(f: SparseMatrix, src: HopfAlgebra, tgt: HopfAlgebra,
                    title: str) -> CheckReport:
    """That f: src -> tgt is a map of Hopf algebras: multiplicative, unital,
    comultiplicative, counital and compatible with the antipodes, with
    witnesses labelled by the source basis."""
    rep = CheckReport(title)
    sb = src.basis
    rep.check("multiplicative", mismatch_labels(f @ src.mult, tgt.mult @ f.kron(f), sb, sb))
    rep.add("unital", f.apply(src.unit) == tgt.unit)
    rep.check("comultiplicative", mismatch_labels(f.kron(f) @ src.comult, tgt.comult @ f, sb))
    rep.check("counital", mismatch_labels(tgt.counit_matrix() @ f, src.counit_matrix(), sb))
    rep.check("antipode", mismatch_labels(f @ src.antipode, tgt.antipode @ f, sb))
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
    if rank(inclusion) != k.dim:
        raise ValueError("inclusion is not injective")
    verify_hopf_map(inclusion, k, h, f"embedding {k.name} in {h.name}").require()
    return HopfSubalgebra(k, inclusion)


def group_subalgebra(h: HopfAlgebra, elements: Sequence[int]) -> HopfSubalgebra:
    """The group algebra of a subgroup of a group algebra's group, embedded
    by sending each subgroup element to the matching basis vector.  Raises
    ValueError for an index outside the group, a repeat, or a product that
    leaves the set, which it names."""
    g: FiniteGroup = h.group
    pos: dict = {}
    for a in elements:
        if a not in range(g.order):
            raise ValueError(f"subgroup element {a} is not in range({g.order})")
        if a in pos:
            raise ValueError(f"subgroup element {a} is repeated")
        pos[a] = len(pos)
    for a in elements:
        for b in elements:
            if g.mul(a, b) not in pos:
                raise ValueError(f"subgroup elements are not closed: {a} * {b} = "
                                 f"{g.mul(a, b)} is not among them")
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
    hb, ib = h.basis, [f"ideal[{t}]" for t in range(ideal.ncols)]

    def nonzero(m: SparseMatrix, *bases):
        return mismatch_labels(m, SparseMatrix.zero(m.nrows, m.ncols, f), *bases)

    checks.check("left ideal", nonzero(proj @ h.mult @ idh.kron(ideal), hb, ib))
    checks.check("right ideal", nonzero(proj @ h.mult @ ideal.kron(idh), ib, hb))
    checks.check("coideal", nonzero(proj.kron(proj) @ h.comult @ ideal, ib))
    checks.check("counit kills ideal", nonzero(h.counit_matrix() @ ideal, ib))
    checks.check("antipode preserves ideal", nonzero(proj @ h.antipode @ ideal, ib))
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
    verify_hopf_map(proj, h, quot, "projection is a Hopf map").require()
    return quot, proj


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def hopf_to_json(h: HopfAlgebra) -> dict:
    d = h.dim
    return {
        "dim": d,
        "basis": list(h.basis),
        "mult": [
            [j // d, j % d, i, str(v)]
            for j, col in sorted(h.mult.cols.items())
            for i, v in sorted(col.items())
        ],
        "comult": [
            [j, i // d, i % d, str(v)]
            for j, col in sorted(h.comult.cols.items())
            for i, v in sorted(col.items())
        ],
        "unit": [str(h.unit.get(i, h.field.zero)) for i in range(d)],
        "counit": [str(h.counit.get(i, h.field.zero)) for i in range(d)],
        "antipode": [
            [i, j, str(v)]
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


# Sweedler's H4 as a hopf_from_json document, in the JSON the command line
# reads (one string, so compiling the module costs no more than a constant):
# g^2 = 1, x^2 = 0, xg = -gx, comult(x) = x (x) 1 + g (x) x, S(x) = -gx
_SWEEDLER_H4 = (
    '{"dim": 4, "basis": ["1", "g", "x", "gx"],'
    ' "mult": [[0, 0, 0, 1], [0, 1, 1, 1], [0, 2, 2, 1], [0, 3, 3, 1],'
    '          [1, 0, 1, 1], [2, 0, 2, 1], [3, 0, 3, 1],'
    '          [1, 1, 0, 1], [1, 2, 3, 1], [1, 3, 2, 1],'
    '          [2, 1, 3, -1], [3, 1, 2, -1]],'
    ' "comult": [[0, 0, 0, 1], [1, 1, 1, 1], [2, 2, 0, 1], [2, 1, 2, 1],'
    '            [3, 3, 1, 1], [3, 0, 3, 1]],'
    ' "unit": [1, 0, 0, 0], "counit": [1, 1, 0, 0],'
    ' "antipode": [[0, 0, 1], [1, 1, 1], [3, 2, -1], [2, 3, 1]]}'
)


def sweedler_h4(field: Field = QQ) -> HopfAlgebra:
    """Sweedler's four-dimensional Hopf algebra on the basis 1, g, x, gx:
    g^2 = 1, x^2 = 0, xg = -gx, comult(x) = x (x) 1 + g (x) x and
    S(x) = -gx, so S(gx) = x.  It is not cocommutative, its counit vanishes
    on x and gx, and outside characteristic 2 it is not commutative and
    S^2 != id."""
    return hopf_from_json(json.loads(_SWEEDLER_H4), field, name="H4")


def group_to_json(g: FiniteGroup) -> dict:
    return {"elements": list(g.labels), "table": [list(r) for r in g.table]}


def group_from_json(doc: dict) -> FiniteGroup:
    return FiniteGroup(doc["table"], doc.get("elements"))
