"""Cyclic objects attached to a Hopf algebra and their homology.

Two carriers are built here:

* the coefficient-free object with degree-n carrier H^{(x)(n+1)}, whose faces
  drop a slot through the counit, whose degeneracies comultiply a slot, and
  whose cyclic operator rotates the last slot to the front; and
* the coefficient object with degree-n carrier H^{(x)n} (x) M for a crossed
  module M, realized in the normal form where the last tensor leg of the free
  model has been pushed into the module.

An object declares each operator once.  The faces and degeneracies that
are ``hopf.slot_map`` of one structure tensor at a slot stride (the counit
faces and every degeneracy here, like the terms of ``bar_complex``) are
declared as (tensor, stride) pairs and added a whole operator at a time by
``hopf.slot_add``; every other operator comes from one adder that adds it
to a whole list of columns -- for the coefficient object ``fan_add``, the
last face and the cyclic operator (see ``build_cyclic``).  Matrices,
boundaries and the per-column evaluators that the identity suite reads are
all derived from these declarations, so the suite checks the code that
homology reads; the evaluators are exact in every degree, so identities
that leave the truncation window are still checked.

Homology routes: Hochschild on normalized chains (Loday, *Cyclic Homology*,
1.6.5); cyclic homology via the cyclic-coinvariant quotient complex
(characteristic zero only, enforced) with Connes' (b, B) bicomplex on the
same normalized chains as an independent cross-check.  The unnormalized
complex and the staircase double complex stay as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterable, Sequence

from .crossed import CrossedModule, action_tensor, decompose_group_case, induce, quotient_coaction, trivial_coaction, u_map, verify_crossed
from .hopf import CentralizerData, FiniteGroup, HopfAlgebra, HopfSubalgebra, TensorIndex, algebra_generators, augmentation_ideal_vectors, balancing_relators, conjugacy_data, group_algebra, quotient_by_normal, separability_element, slot_add, slot_apply, slot_map
from .linalg import (
    QQ,
    Bicomplex,
    ChainComplex,
    QuotientSpace,
    SparseMatrix,
    Subspace,
    TruncationError,
    Vec,
    homology_dims,
    solve_matrix,
    total_complex,
    vec_add_at,
    vec_apply,
    vec_iadd_scaled,
)
from .reporting import CheckReport


class CharacteristicError(ValueError):
    """A cyclic-homology route was requested over positive characteristic."""


# ---------------------------------------------------------------------------
# cyclic objects
# ---------------------------------------------------------------------------


class CyclicObject:
    """Faces, degeneracies and cyclic operators, each declared once.

    slots(kind, n) lists the leading faces (kind "face") or degeneracies
    (kind "degen") of degree n that are ``slot_map`` of a structure tensor,
    as (tensor, stride) pairs.  add(cols, kind, n, i, c) adds c times any
    other operator -- the i-th face or degeneracy of degree n, or with kind
    "cyclic" (and i = 0) the cyclic operator tau_n -- to every column of
    cols, a list of dim(n) vectors, in place.  Both are exact formulas valid
    in any degree; `top` only limits which matrices may be materialized.
    With cyclic=False the object is simplicial only and add is never asked
    for tau_n.

    ``_add`` is the one place that applies an operator to a whole list of
    columns: a declared slot through ``slot_add``, anything else through
    add.  The matrices, the boundaries, the lambda relators of
    ``connes_data`` (tau_n added to the relator columns, with no matrix of
    tau_n), the degenerate relators of ``hochschild`` (streamed from
    transient ``columns`` lists, with no degeneracy matrix) and the
    d_0 tau_n = d_n check of ``mixed_bicomplex`` all go through it.  The
    per-column evaluators face_fn, degen_fn and cyclic_fn, which the
    identity suite reads, are derived from the same declarations:
    ``slot_map`` of a declared slot, or a column of the whole operator,
    built once through ``_add`` and held until ``release`` (shared,
    read-only vectors).  ``apply_*`` apply an operator to a vector: a
    declared slot through ``slot_apply``, any other through ``vec_apply``
    on the columns its evaluator holds; the callable is resolved once per
    operator and dropped with the evaluator, at a ``columns`` hand-over
    and at ``release``.
    """

    def __init__(
        self,
        field,
        top: int,
        dim_fn: Callable[[int], int],
        slots: Callable[[str, int], Sequence[tuple[SparseMatrix, int]]],
        add: Callable[[list, str, int, int, object], None],
        name: str = "",
        cyclic: bool = True,
    ):
        self.field = field
        self.top = top
        self.dim_fn = dim_fn
        self.slots = slots
        self.add = add
        self.name = name
        self._cyclic = cyclic
        self._dims: dict = {}
        self._face: dict = {}
        self._degen: dict = {}
        self._cyc: dict = {}
        self._bnd: dict = {}
        self._bp: dict = {}
        self._quot: dict = {}
        self._qbnd: dict = {}
        self._evaluators: dict = {}
        self._appliers: dict = {}
        self._held: dict = {}

    def __repr__(self):
        return f"<CyclicObject {self.name} top {self.top}>"

    @property
    def simplicial_only(self) -> bool:
        return not self._cyclic

    def _require_cyclic(self) -> None:
        if not self._cyclic:
            raise ValueError(f"{self.name} is simplicial only: it has no cyclic operator")

    def dim(self, n: int) -> int:
        if n < 0:
            return 0
        d = self._dims.get(n)
        if d is None:
            d = self.dim_fn(n)
            self._dims[n] = d
        return d

    @property
    def dims(self) -> list:
        return [self.dim(n) for n in range(self.top + 1)]

    def _matrix(self, cols: list, target_dim: int) -> SparseMatrix:
        """The matrix whose columns are the vectors of cols."""
        return SparseMatrix(target_dim, len(cols), self.field,
                            {c: v for c, v in enumerate(cols) if v})

    def _add(self, cols: list, kind: str, n: int, i: int, c) -> None:
        """cols[col] += c * op(col) for every column of cols (a list of
        dim(n) vectors), in place, with op the operator (kind, n, i): a
        declared slot through ``slot_add``, any other through add."""
        slots = self.slots(kind, n)
        if i < len(slots):
            slot_add(cols, *slots[i], c)
        else:
            self.add(cols, kind, n, i, c)

    def columns(self, kind: str, n: int, i: int) -> list:
        """Every column of the operator (kind, n, i) as a list of vectors
        (empty ones included) that the caller owns: the whole operator the
        evaluators hold, handed over, or else one built through ``_add``."""
        cols = self._held.pop((kind, n, i), None)
        if cols is None:
            cols = [{} for _ in range(self.dim(n))]
            self._add(cols, kind, n, i, self.field.one)
        else:
            del self._evaluators[kind, n, i]
            self._appliers.pop((kind, n, i), None)
        return cols

    def release(self) -> None:
        """Drop the whole operators the evaluators hold."""
        self._evaluators.clear()
        self._appliers.clear()
        self._held.clear()

    def _evaluator(self, kind: str, n: int, i: int) -> Callable[[int], Vec]:
        """col -> column col of the operator (kind, n, i): ``slot_map`` of a
        declared slot, else a column of the whole operator, built once."""
        key = (kind, n, i)
        fn = self._evaluators.get(key)
        if fn is None:
            slots = self.slots(kind, n)
            if i < len(slots):
                fn = partial(slot_map, *slots[i])
            else:
                cols = self._held[key] = self.columns(kind, n, i)
                fn = cols.__getitem__
            self._evaluators[key] = fn
        return fn

    def face_fn(self, n: int, i: int, col: int) -> Vec:
        """Column col of the i-th face in degree n (n >= 1, 0 <= i <= n)."""
        return self._evaluator("face", n, i)(col)

    def degen_fn(self, n: int, i: int, col: int) -> Vec:
        """Column col of the i-th degeneracy in degree n (0 <= i <= n)."""
        return self._evaluator("degen", n, i)(col)

    def cyclic_fn(self, n: int, col: int) -> Vec:
        """Column col of the cyclic operator tau_n."""
        self._require_cyclic()
        return self._evaluator("cyclic", n, 0)(col)

    def face(self, n: int, i: int) -> SparseMatrix:
        if not 1 <= n <= self.top or not 0 <= i <= n:
            raise TruncationError(f"face ({n},{i}) outside the stored range")
        key = (n, i)
        m = self._face.get(key)
        if m is None:
            m = self._face[key] = self._matrix(self.columns("face", n, i), self.dim(n - 1))
        return m

    def degen(self, n: int, i: int) -> SparseMatrix:
        if not 0 <= n <= self.top or not 0 <= i <= n:
            raise TruncationError(f"degeneracy ({n},{i}) outside the stored range")
        key = (n, i)
        m = self._degen.get(key)
        if m is None:
            m = self._degen[key] = self._matrix(self.columns("degen", n, i), self.dim(n + 1))
        return m

    def cyclic(self, n: int) -> SparseMatrix:
        if not 0 <= n <= self.top:
            raise TruncationError(f"cyclic operator at degree {n} outside the stored range")
        self._require_cyclic()
        m = self._cyc.get(n)
        if m is None:
            m = self._cyc[n] = self._matrix(self.columns("cyclic", n, 0), self.dim(n))
        return m

    def _face_sum(self, n: int, nfaces: int, cache: dict) -> SparseMatrix:
        """Alternating sum of the first `nfaces` faces in degree n, cached,
        each face added to the columns by ``_add``."""
        if not 1 <= n <= self.top:
            raise TruncationError(f"boundary at degree {n} outside the stored range")
        m = cache.get(n)
        if m is None:
            one = self.field.one
            cols: list = [{} for _ in range(self.dim(n))]
            for i in range(nfaces):
                self._add(cols, "face", n, i, -one if i % 2 else one)
            m = self._matrix(cols, self.dim(n - 1))
            cache[n] = m
        return m

    def boundary(self, n: int) -> SparseMatrix:
        """Alternating sum of all faces in degree n."""
        return self._face_sum(n, n + 1, self._bnd)

    def norm_boundary(self, n: int) -> SparseMatrix:
        """Alternating sum omitting the last face (the acyclic-column
        differential of the staircase double complex)."""
        return self._face_sum(n, n, self._bp)

    def chain_complex(self, top: int) -> ChainComplex:
        """The unnormalized complex through `top`: ``hochschild``'s oracle."""
        if top > self.top:
            raise TruncationError(
                f"chain complex through degree {top} exceeds truncation {self.top}"
            )
        return ChainComplex(
            [self.dim(n) for n in range(top + 1)],
            [self.boundary(n) for n in range(1, top + 1)],
            self.field,
        )

    def quotient(self, kind: str, n: int, relators: Iterable[Vec]) -> QuotientSpace:
        """The degree-n carrier modulo the span of `relators`, built once
        per (kind, n): the stream is read only then, so pass a lazy one."""
        q = self._quot.get((kind, n))
        if q is None:
            q = self._quot[kind, n] = QuotientSpace(self.dim(n), self.field, relators)
        return q

    def quotient_boundary(self, kind: str, n: int, on: str) -> SparseMatrix:
        """The boundary at degree n on the built `kind` quotients, cached."""
        b = self._qbnd.get((kind, n))
        if b is None:
            b = self._qbnd[kind, n] = self._quot[kind, n - 1].induced_matrix(
                self.boundary(n), source=self._quot[kind, n],
                what=f"boundary at degree {n} on {on}",
            )
        return b

    def _apply(self, kind: str, n: int, i: int, vec: Vec) -> Vec:
        """The operator (kind, n, i) applied to vec: ``apply_*`` dispatch
        here.  The callable, ``slot_apply`` of a declared slot or
        ``vec_apply`` over the evaluator, is resolved once per operator and
        dropped with the evaluators; a zero vec builds nothing."""
        if not vec:
            return {}
        key = (kind, n, i)
        fn = self._appliers.get(key)
        if fn is None:
            slots = self.slots(kind, n)
            if i < len(slots):
                fn = partial(slot_apply, *slots[i])
            else:
                fn = partial(vec_apply, self._evaluator(kind, n, i))
            self._appliers[key] = fn
        return fn(vec)

    # linear extensions of the operators, for identity checking
    def apply_face(self, n: int, i: int, vec: Vec) -> Vec:
        return self._apply("face", n, i, vec)

    def apply_degen(self, n: int, i: int, vec: Vec) -> Vec:
        return self._apply("degen", n, i, vec)

    def apply_cyclic(self, n: int, vec: Vec) -> Vec:
        self._require_cyclic()
        return self._apply("cyclic", n, 0, vec)


def rotation_add(cols: list, d: int, n: int, c) -> None:
    """cols[col] += c * tau_n(col) for every column of cols, in place, with
    tau_n rotating the last of the n + 1 slots (each of dimension d) of a
    free tensor power to the front."""
    shift = d ** n
    for col, acc in enumerate(cols):
        rest, last = divmod(col, d)
        vec_add_at(acc, last * shift + rest, c)


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------


def _face_face(z: CyclicObject, n: int, c: int):
    """d_i d_j = d_{j-1} d_i for i < j."""
    faces = [z.face_fn(n, i, c) for i in range(n + 1)]
    for j in range(1, n + 1):
        for i in range(j):
            if z.apply_face(n - 1, i, faces[j]) != z.apply_face(n - 1, j - 1, faces[i]):
                yield f"(i={i}, j={j}, column {c})"


def _degen_degen(z: CyclicObject, n: int, c: int):
    """s_i s_j = s_{j+1} s_i for i <= j."""
    degs = [z.degen_fn(n, i, c) for i in range(n + 1)]
    for j in range(n + 1):
        for i in range(j + 1):
            if z.apply_degen(n + 1, i, degs[j]) != z.apply_degen(n + 1, j + 1, degs[i]):
                yield f"(i={i}, j={j}, column {c})"


def _face_degen(z: CyclicObject, n: int, c: int):
    """d_i s_j = id (i = j, j+1), s_{j-1} d_i (i < j), s_j d_{i-1} (i > j+1)."""
    degs = [z.degen_fn(n, j, c) for j in range(n + 1)]
    for j in range(n + 1):
        for i in range(n + 2):
            if i in (j, j + 1):
                want = {c: z.field.one}
            elif i < j:
                want = z.apply_degen(n - 1, j - 1, z.face_fn(n, i, c))
            else:
                want = z.apply_degen(n - 1, j, z.face_fn(n, i - 1, c))
            if z.apply_face(n + 1, i, degs[j]) != want:
                yield f"(i={i}, j={j}, column {c})"


def _cyclic_face(z: CyclicObject, n: int, c: int):
    """d_0 t_n = d_n and d_i t_n = t_{n-1} d_{i-1} for 0 < i <= n."""
    tau = z.cyclic_fn(n, c)
    if z.apply_face(n, 0, tau) != z.face_fn(n, n, c):
        yield f"(i=0, column {c})"
    for i in range(1, n + 1):
        if z.apply_face(n, i, tau) != z.apply_cyclic(n - 1, z.face_fn(n, i - 1, c)):
            yield f"(i={i}, column {c})"


def _cyclic_degen(z: CyclicObject, n: int, c: int):
    """s_0 t_n = t_{n+1}^2 s_n and s_i t_n = t_{n+1} s_{i-1} for 0 < i <= n."""
    tau = z.cyclic_fn(n, c)
    want = z.apply_cyclic(n + 1, z.apply_cyclic(n + 1, z.degen_fn(n, n, c)))
    if z.apply_degen(n, 0, tau) != want:
        yield f"(i=0, column {c})"
    for i in range(1, n + 1):
        if z.apply_degen(n, i, tau) != z.apply_cyclic(n + 1, z.degen_fn(n, i - 1, c)):
            yield f"(i={i}, column {c})"


def _cyclic_order(z: CyclicObject, n: int, c: int):
    """t_n^{n+1} = id."""
    v: Vec = {c: z.field.one}
    for _ in range(n + 1):
        v = z.apply_cyclic(n, v)
    if v != {c: z.field.one}:
        yield f"column {c}"


# (family, lowest degree, failures at one column); the last three need t_n
_IDENTITY_FAMILIES = (
    ("face-face", 2, _face_face),
    ("degeneracy-degeneracy", 0, _degen_degen),
    ("face-degeneracy", 0, _face_degen),
    ("cyclic-face", 1, _cyclic_face),
    ("cyclic-degeneracy", 0, _cyclic_degen),
    ("cyclic operator order", 0, _cyclic_order),
)


def verify_cyclic_identities(
    z: CyclicObject, max_degree: int | None = None, columns=None
) -> CheckReport:
    """All simplicial and cyclic identities, verified column by column from
    the evaluators.  Compositions may pass through degrees beyond the
    truncation; that is fine because evaluators are not truncated.  An
    object without a cyclic operator gets the three simplicial families.

    `columns`: optional callable degree -> iterable of column indices, for
    sampled verification; defaults to every column.
    """
    d_top = z.top if max_degree is None else max_degree
    rep = CheckReport(f"cyclic identities for {z.name or 'cyclic object'}")
    families = _IDENTITY_FAMILIES[:3] if z.simplicial_only else _IDENTITY_FAMILIES
    for family, low, failures in families:
        for n in range(low, d_top + 1):
            cols = range(z.dim(n)) if columns is None else columns(n)
            rep.check(f"{family} at degree {n}",
                      (w for c in cols for w in failures(z, n, c)))
    return rep


def _sample_columns(z: CyclicObject):
    """The columns the identity suite checks: every column while the
    degree-2 carrier has at most 256, else a few per degree (None means
    every column)."""
    if z.dim(2) <= 256:
        return None

    def cols(n):
        d = z.dim(n)
        if d <= 8:
            return range(d)
        return sorted({0, d // 3, d // 2, (2 * d) // 3, d - 1})

    return cols


# ---------------------------------------------------------------------------
# the coefficient-free object H^{(x)(n+1)}
# ---------------------------------------------------------------------------


def build_aux_cyclic(h: HopfAlgebra, max_degree: int) -> CyclicObject:
    """Cyclic object with carrier H^{(x)(n+1)} in degree n: faces drop a slot
    through the counit, degeneracies comultiply a slot, the cyclic operator
    rotates the last slot to the front.  Slots are addressed by their
    strides, as in ``build_cyclic``."""
    f = h.field
    hd = h.dim
    eps = h.counit_matrix()

    def dim_fn(n):
        return hd ** (n + 1)

    # slot i of the degree-n carrier has stride hd^(n-i)
    @lru_cache(maxsize=None)
    def slots(kind, n):
        t = {"face": eps, "degen": h.comult}.get(kind)
        return tuple((t, hd ** (n - i)) for i in range(n + 1)) if t else ()

    def rotate(cols, kind, n, i, c):  # tau_n, the one operator not a slot
        rotation_add(cols, hd, n, c)

    z = CyclicObject(f, max_degree, dim_fn, slots, rotate, name=f"Z~({h.name})")
    rep = verify_cyclic_identities(z, min(max_degree, 2))
    z.release()
    rep.require(z.name)
    return z


# ---------------------------------------------------------------------------
# the coefficient object H^{(x)n} (x) M
# ---------------------------------------------------------------------------


def build_cyclic(
    h: HopfAlgebra,
    m: CrossedModule,
    max_degree: int,
    require_modular: bool = True,
) -> CyclicObject:
    """Cyclic object with degree-n carrier H^{(x)n} (x) M in the normal form
    where the free model's last leg is absorbed into the module.

    Faces: slots 0..n-1 drop through the counit; the last face fans the last
    slot out across all slots through the antipode and acts on the module.
    Degeneracies comultiply a slot or append the unit.  The cyclic operator
    uses the coaction; at degree zero it is u(m) = m_(1) . m_(0), the
    ``u_map`` that the modularity gate computes, and that is the identity
    exactly when the module is modular -- so non-modular coefficients are
    refused unless `require_modular=False` is passed for diagnostic runs
    (the identity suite then pinpoints the failure).

    The counit faces and the degeneracies are declared to the object as
    slots: ``slot_map`` of the counit at each of the first n slot strides,
    and of the comultiplication at each of them and then the unit at stride
    dim M.  The last face and the cyclic operator have one definition,
    ``fan_add``, the object's add, which adds the whole operator to a list
    of columns from tables memoized per object: x S(l) for every pair of
    basis elements, and per degree, last slot and module index the Sweedler
    legs with their action and coaction terms.  The evaluators that the
    build's identity suite reads are released after it.
    """
    if m.h is not h:
        raise ValueError("module is not over the given Hopf algebra")
    f = h.field
    hd, md = h.dim, m.dim
    eps, unit = h.counit_matrix(), h.unit_matrix()
    verify_crossed(m).require(m.name)
    u = u_map(m)  # tau_0
    if require_modular and u != SparseMatrix.identity(md, f):
        raise ValueError(
            f"coefficients {m.name} are not modular (u != id); "
            "pass require_modular=False for a diagnostic build"
        )

    # a degree-n basis tuple is (h^0, ..., h^{n-1}, m): the module index last
    @lru_cache(maxsize=None)
    def index(n):
        return TensorIndex([hd] * n + [md])

    def dim_fn(n):
        return hd**n * md

    @lru_cache(maxsize=None)
    def by_leg():
        """by_leg()[l][x] = x S(l) as [(p, coeff)]: the slot rows, shared
        by every leg, slot and degree."""
        return [[list(h.product_vec({x: f.one}, h.antipode_of(l)).items())
                 for x in range(hd)] for l in range(hd)]

    # With l_0 (x) l_1 (x) ... the iterated coproduct of the last slot
    # h^{n-1} of (h^0, ..., h^{n-1}, m), the last face is
    #   d_n = h^0 S(l_{n-2}) (x) ... (x) h^{n-2} S(l_0) (x) l_{n-1} m
    # and the cyclic operator, on the n+1 legs of h^{n-1}, is
    #   tau_n = m_(1) S(l_{n-1}) (x) h^0 S(l_{n-2}) (x) ... (x) l_n m_(0).
    # In both, prefix slot j goes to h^j S(l_{n-2-j}) at stride
    # hd^(n-2-j) * md, and the rest depends only on the tail
    # h^{n-1} * md + m of the column.
    @lru_cache(maxsize=None)
    def fans(n, tau):
        """(prefix strides, fan table) of d_n, or with tau of tau_n.  Per
        tail the table lists terms (head, rows, action): head holds the
        (index, coeff) of the slots above the prefix, rows[j] is
        by_leg()[l_{n-2-j}], and action the (m', coeff) of the module."""
        rows_of = by_leg()
        s0 = index(n).strides[0]
        table = []
        for last in range(hd):
            for mi in range(md):
                terms = []
                for legs, cleg in h.sweedler(last, n + tau):
                    rows = tuple(rows_of[l] for l in reversed(legs[:n - 1]))
                    if not tau:
                        terms.append(([(0, cleg)], rows, m.act_pairs(legs[n - 1], mi)))
                        continue
                    for (m0, m1), cco in m.coact_pairs(mi):
                        c = cleg * cco
                        head = [(p * s0, c * cp) for p, cp in rows_of[legs[n - 1]][m1]]
                        terms.append((head, rows, m.act_pairs(legs[n], m0)))
                table.append(terms)
        return index(n - 1).strides, table

    def fan_add(cols, kind, n, i, c):
        """cols[col] += c * d_n(col), or with kind "cyclic" c * tau_n(col),
        for every column of cols (all dim(n) of them), in place: the one
        definition of both operators.  The columns sharing a tail are every
        (hd * md)-th; per term, the action is folded into the head entries
        and the prefix slots are expanded one level at a time, in flat
        order, so each partial product is shared by every prefix that
        begins with it."""
        if not c:
            return
        if not n:  # only tau_0 = u: m -> m_(1) . m_(0) exists there
            for col, acc in enumerate(cols):
                vec_iadd_scaled(acc, u.cols.get(col, {}), c)
            return
        strides, table = fans(n, kind == "cyclic")
        for tail, terms in enumerate(table):
            run = cols[tail::hd * md]
            for head, rows, act in terms:
                level = [[(k + mj, c * ch * ca) for k, ch in head for mj, ca in act]]
                if not level[0]:
                    continue
                for row, s in zip(rows, strides):
                    level = [[(k + p * s, ch * cp) for k, ch in ents for p, cp in row[x]]
                             for ents in level for x in range(hd)]
                for acc, ents in zip(run, level):
                    for k, v in ents:
                        w = acc.get(k)
                        if w is None:
                            acc[k] = v
                        else:
                            w = w + v
                            if w:
                                acc[k] = w
                            else:
                                del acc[k]

    @lru_cache(maxsize=None)
    def slots(kind, n):
        """(tensor, slot stride) of d_0, ..., d_{n-1}, or of s_0, ..., s_n."""
        strides = index(n).strides[:n]
        if kind == "face":
            return tuple((eps, s) for s in strides)
        if kind == "degen":
            return tuple((h.comult, s) for s in strides) + ((unit, md),)
        return ()

    z = CyclicObject(f, max_degree, dim_fn, slots, fan_add, name=f"Z({h.name};{m.name})")
    # a diagnostic build hands the object back so the identity suite can
    # pinpoint which axiom fails instead of raising here
    if require_modular:
        rep = verify_cyclic_identities(z, min(max_degree, 2), columns=_sample_columns(z))
        z.release()
        rep.require(z.name)
    return z


# ---------------------------------------------------------------------------
# homology routes
# ---------------------------------------------------------------------------


def _normalized(z: CyclicObject, top: int) -> tuple:
    """The quotients of degrees 0..top by the images of the degeneracies,
    and the boundaries b-bar at degrees 1..top on them, cached on z.  The
    relators stream from one transient ``columns`` list per degeneracy, so
    no degeneracy matrix is built or held."""
    norm = [z.quotient("normalized", n, (
        col for i in range(n) for col in z.columns("degen", n - 1, i) if col
    )) for n in range(top + 1)]
    return norm, [z.quotient_boundary("normalized", n, "normalized chains")
                  for n in range(1, top + 1)]


def hochschild(z: CyclicObject, low: int, high: int) -> list:
    """Homology, degrees low..high, of the face-sum complex modulo the
    degenerate elements, a quasi-isomorphic quotient over any field (Loday,
    *Cyclic Homology*, 1.6.5), with the b-bar of ``mixed_bicomplex``."""
    if high + 1 > z.top:
        raise TruncationError(
            f"homology at degree {high} needs boundaries through degree "
            f"{high + 1}, but the object is truncated at {z.top}"
        )
    norm, b = _normalized(z, high + 1)
    return homology_dims(ChainComplex([q.dim for q in norm], b, z.field), low, high)


def norm_complex_homology(z: CyclicObject, low: int, high: int) -> list:
    """Homology of the last-face-omitted complex (expected to vanish; the
    staircase double complex relies on these columns being acyclic).  A
    test oracle, beside ``tsygan_bicomplex``."""
    if high + 1 > z.top:
        raise TruncationError("insufficient truncation for the requested range")
    c = ChainComplex(
        [z.dim(n) for n in range(high + 2)],
        [z.norm_boundary(n) for n in range(1, high + 2)],
        z.field,
    )
    return homology_dims(c, low, high)


def _gate_characteristic(z: CyclicObject) -> None:
    if z.field.characteristic:
        raise CharacteristicError(
            "cyclic homology routes require characteristic zero; "
            f"the field has characteristic {z.field.characteristic}"
        )


def _coinvariant_relators(z: CyclicObject, n: int):
    """x - (-1)^n tau_n x for every basis vector x of degree n: -(-1)^n
    tau_n is added to empty columns in one ``_add`` pass, then x to each,
    and each column is handed over as it is yielded, so no matrix of tau_n
    is built or held."""
    one = z.field.one
    cols: list = [{} for _ in range(z.dim(n))]
    z._add(cols, "cyclic", n, 0, -one if n % 2 == 0 else one)
    for c, col in enumerate(cols):
        cols[c] = None
        vec_add_at(col, c, one)
        if col:
            yield col


def connes_data(z: CyclicObject, top: int):
    """Cyclic-coinvariant quotients and the induced complex through `top`;
    the quotients and boundaries are cached on z per degree.  The relators
    add tau_n to their own columns (``_coinvariant_relators``), so no
    matrix of tau_n is built or left on z."""
    _gate_characteristic(z)
    if top > z.top:
        raise TruncationError(
            f"cyclic homology through degree {top - 1} needs carriers through "
            f"degree {top}, but the object is truncated at {z.top}"
        )
    quotients = [z.quotient("lambda", n, _coinvariant_relators(z, n))
                 for n in range(top + 1)]
    diffs = [z.quotient_boundary("lambda", n, "the cyclic quotient")
             for n in range(1, top + 1)]
    return quotients, ChainComplex([q.dim for q in quotients], diffs, z.field)


def hc_connes(z: CyclicObject, low: int, high: int) -> list:
    """Cyclic homology via the cyclic-coinvariant quotient complex."""
    _, c = connes_data(z, high + 1)
    return homology_dims(c, low, high)


def _signed_cyclic(z: CyclicObject, n: int) -> SparseMatrix:
    """t_n = (-1)^n times the cyclic operator at degree n."""
    t = z.cyclic(n)
    return t if n % 2 == 0 else -t


def tsygan_bicomplex(z: CyclicObject, max_total: int | None = None) -> Bicomplex:
    """The staircase double complex: even columns carry the full boundary,
    odd columns the negated last-face-omitted boundary; rows alternate
    1 - T and the T-norm, with T the signed cyclic operator.

    A test oracle for ``hc_bicomplex``: its total complex, built on the
    unnormalized carriers, has the same homology and is larger (dims
    [6, 42, 258, 1554, 9330] against [6, 30, 156, 780, 3906] for kS3 with
    adjoint coefficients)."""
    _gate_characteristic(z)
    n_max = (z.top - 1) if max_total is None else max_total
    if n_max + 1 > z.top:
        raise TruncationError("insufficient truncation for the requested total degree")
    f = z.field
    reach = n_max + 1
    cells = {}
    horiz = {}
    vert = {}
    signed = {q: _signed_cyclic(z, q) for q in range(reach + 1)}
    for p in range(reach + 1):
        for q in range(reach + 1 - p):
            cells[(p, q)] = z.dim(q)
            if q >= 1:
                vert[(p, q)] = z.boundary(q) if p % 2 == 0 else -z.norm_boundary(q)
            if p >= 1:
                t = signed[q]
                if p % 2 == 1:
                    horiz[(p, q)] = SparseMatrix.identity(z.dim(q), f) - t
                else:
                    acc = SparseMatrix.identity(z.dim(q), f)
                    power = SparseMatrix.identity(z.dim(q), f)
                    for _ in range(q):
                        power = t @ power
                        acc = acc + power
                    horiz[(p, q)] = acc
    return Bicomplex(cells, horiz, vert, f)


def mixed_bicomplex(z: CyclicObject, max_total: int) -> Bicomplex:
    """Connes' (b, B) bicomplex on normalized chains (Loday, *Cyclic
    Homology*, 1.6 and 2.1.7-2.1.9), through total degree max_total + 1.

    The normalized carrier in degree n is the quotient of the degree-n
    carrier by the images of the degeneracies out of degree n-1.  Cell
    (p, q) carries the normalized carrier of degree q - p (zero when
    q < p); the vertical maps are ``hochschild``'s b-bar and the horizontal ones
    B_n = (1 - t_{n+1}) s N_n : C_n -> C_{n+1}, where t_n is (-1)^n times
    the cyclic operator tau_n, s = tau_{n+1} s_n is the extra degeneracy
    and N_n is the sum of the powers of t_n.  Both are pushed to the
    normalized carriers by ``QuotientSpace.induced_matrix``, which checks
    that they descend; ``Bicomplex`` checks b^2 = 0, B^2 = 0 and
    bB + Bb = 0 once, as the d o d = 0 check of the total complex that it
    builds and ``total_complex`` returns.  The extra degeneracy's s_n is
    a transient matrix, not cached on z.  Last,
    d_0 tau_n = d_n is checked at every column of every degree
    1..max_total + 1: B is built from tau and the degeneracies alone, so a
    tau that breaks that identity can pass every check above and give wrong
    dimensions.  Both operators are added through ``CyclicObject._add``,
    one degree at a time and not kept.
    """
    _gate_characteristic(z)
    reach = max_total + 1
    if reach > z.top:
        raise TruncationError(
            f"the (b, B) bicomplex through total degree {max_total} needs "
            f"carriers through degree {reach}, but the object is truncated "
            f"at {z.top}"
        )
    f = z.field
    norm, b = _normalized(z, reach)
    # B out of degree n sits in cells with p >= 1, so n <= reach - 2
    big_b = {}
    for n in range(reach - 1):
        t = _signed_cyclic(z, n)
        power = total = SparseMatrix.identity(z.dim(n), f)
        for _ in range(n):
            power = t @ power
            total = total + power
        one_minus_t = SparseMatrix.identity(z.dim(n + 1), f) - _signed_cyclic(z, n + 1)
        extra = z.cyclic(n + 1) @ z._matrix(z.columns("degen", n, n), z.dim(n + 1))
        big_b[n] = norm[n + 1].induced_matrix(
            one_minus_t @ extra @ total, source=norm[n],
            what=f"B at degree {n} on normalized chains",
        )
    cells = {}
    horiz = {}
    vert = {}
    for p in range(reach + 1):
        for q in range(reach + 1 - p):
            n = q - p
            cells[(p, q)] = norm[n].dim if n >= 0 else 0
            if n >= 1:
                vert[(p, q)] = b[n - 1]
            if p >= 1 and n >= 0:
                horiz[(p, q)] = big_b[n]
    # the d_0 tau_n = d_n check runs before Bicomplex builds its total
    # complex, so that its transient lists are gone by then, and is
    # required after it, so that a failing square still raises first
    rep = CheckReport(f"cyclic operator of {z.name or 'cyclic object'}")
    for n in range(1, reach + 1):
        if not rep.check(f"d_0 t_n = d_n at degree {n}", _last_face_failures(z, n)):
            break
    z.release()
    bic = Bicomplex(cells, horiz, vert, f)
    rep.require("the (b, B) bicomplex")
    return bic


def _last_face_failures(z: CyclicObject, n: int):
    """The columns where d_0 tau_n != d_n: the columns of tau_n are
    replaced one by one by their d_0 images, d_n is subtracted from all of
    them at once, and the columns left nonzero fail; the one transient list
    is dropped when the check ends."""
    cols = z.columns("cyclic", n, 0)
    for c, tau in enumerate(cols):
        cols[c] = z.apply_face(n, 0, tau)
    z._add(cols, "face", n, n, -z.field.one)
    yield from (f"column {c}" for c, v in enumerate(cols) if v)


def hc_bicomplex(z: CyclicObject, low: int, high: int) -> list:
    """Cyclic homology via the total complex of Connes' (b, B) bicomplex
    on normalized chains (``mixed_bicomplex``)."""
    c = total_complex(mixed_bicomplex(z, high), high)
    return homology_dims(c, low, high)


def hc(z: CyclicObject, low: int, high: int, method: str = "lambda") -> list:
    """Cyclic homology dims, degrees low..high.  method: "lambda" (quotient
    complex), "bicomplex" (Connes' (b, B) bicomplex on normalized chains),
    or "both" (compute both and require exact agreement)."""
    if method == "lambda":
        return hc_connes(z, low, high)
    if method == "bicomplex":
        return hc_bicomplex(z, low, high)
    if method == "both":
        b = hc_bicomplex(z, low, high)  # first, as the larger elimination
        a = hc_connes(z, low, high)
        if a != b:
            raise ValueError(
                f"cyclic homology routes disagree: quotient complex {a}, "
                f"double complex {b}"
            )
        return a
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# bar-resolution oracle
# ---------------------------------------------------------------------------


def bar_complex(h: HopfAlgebra, mdim: int, action: SparseMatrix, top: int) -> ChainComplex:
    """B_n = H^{(x)n} (x) V with the standard differential: counit the first
    slot, merge adjacent slots, act with the last slot.  Each term is the
    ``slot_map`` of its structure tensor at the stride of its lower slot,
    added to the differential a whole term at a time by ``slot_add``."""
    f = h.field
    hd = h.dim
    eps = h.counit_matrix()
    dims = [hd**n * mdim for n in range(top + 1)]
    diffs = []
    for n in range(1, top + 1):
        # (tensor, stride) of d_0, ..., d_n, added with the sign (-1)^i
        terms = ([(eps, hd ** (n - 1) * mdim)]
                 + [(h.mult, hd ** (n - 1 - i) * mdim) for i in range(1, n)]
                 + [(action, 1)])
        cols: list = [{} for _ in range(dims[n])]
        for i, (t, s) in enumerate(terms):
            slot_add(cols, t, s, -f.one if i % 2 else f.one)
        diffs.append(SparseMatrix(dims[n - 1], dims[n], f,
                                  {c: v for c, v in enumerate(cols) if v}))
    return ChainComplex(dims, diffs, f)


def tor_oracle(h: HopfAlgebra, m: CrossedModule, low: int, high: int) -> list:
    """Tor over H of the counit field against the module underlying m,
    computed by the bar resolution -- an oracle independent of the cyclic
    carrier construction."""
    c = bar_complex(h, m.dim, m.action, high + 1)
    return homology_dims(c, low, high)


def group_homology(
    g: FiniteGroup, mdim: int, action: SparseMatrix, low: int, high: int, field=None
) -> list:
    """Group homology via the bar resolution over the group algebra."""
    h = group_algebra(g, field if field is not None else QQ)
    c = bar_complex(h, mdim, action, high + 1)
    return homology_dims(c, low, high)


# ---------------------------------------------------------------------------
# the periodicity sequence rank-feasibility check
# ---------------------------------------------------------------------------


def sbi_check(hh: list, hc: list) -> CheckReport:
    """Feasibility of the long exact sequence connecting Hochschild and
    cyclic homology, given their dimensions in degrees 0..R.

    The sequence nodes are laid out top-down and an interval of feasible
    ranks is propagated through the exactness relations.  An empty interval
    certifies that no exact sequence with these dimensions exists.  This
    subsumes the alternating-sum constraint on every window.
    """
    rep = CheckReport("periodicity exact-sequence feasibility")
    if len(hh) != len(hc):
        rep.add("matching degree ranges", False, f"{len(hh)} vs {len(hc)} entries")
        return rep
    big = len(hh) - 1
    nodes = []
    labels = []
    if big >= 1:
        nodes.append(hc[big - 1])
        labels.append(f"HC_{big - 1}")
    for n in range(big, -1, -1):
        nodes.append(hh[n])
        labels.append(f"HH_{n}")
        nodes.append(hc[n])
        labels.append(f"HC_{n}")
        nodes.append(hc[n - 2] if n >= 2 else 0)
        labels.append(f"HC_{n - 2}" if n >= 2 else "0")
    nodes.extend([0, 0])
    labels.extend(["0", "0"])

    def infeasible():
        lo, hi = 0, min(nodes[0], nodes[1])
        for i in range(1, len(nodes)):
            d = nodes[i]
            nxt = nodes[i + 1] if i + 1 < len(nodes) else 0
            lo, hi = max(d - hi, 0), min(d - lo, d, nxt)
            if lo > hi:
                yield f"no feasible rank at node {labels[i]} (position {i})"

    rep.check("rank intervals consistent along the sequence", infeasible())
    return rep


# ---------------------------------------------------------------------------
# structural theorems as checks
# ---------------------------------------------------------------------------


def _fold(dims: list, n: int) -> int:
    return sum(dims[n - 2 * i] for i in range(n // 2 + 1) if n - 2 * i < len(dims))


@dataclass
class FoldingComparison:
    hc: list
    folded: list
    report: CheckReport


def cocommutative_folding_check(
    h: HopfAlgebra, m: CrossedModule, low: int, high: int
) -> FoldingComparison:
    """For a cocommutative Hopf algebra and a trivial-coaction module, the
    cyclic homology is the even-shifted fold of the bar-resolution Tor.
    Both sides computed independently and compared degreewise."""
    if not h.is_cocommutative():
        raise ValueError("the Hopf algebra is not cocommutative")
    if m.coaction != trivial_coaction(h, m.dim):
        raise ValueError("the module does not have trivial coaction")
    z = build_cyclic(h, m, high + 1)
    hcd = hc_connes(z, low, high)
    tor = tor_oracle(h, m, 0, high)
    folded = [_fold(tor, n) for n in range(low, high + 1)]
    rep = CheckReport(f"folding comparison for ({h.name}, {m.name})")
    rep.agree_by_degree(range(low, high + 1),
                        ("cyclic dims match folded Tor", {"hc": hcd, "folded": folded}))
    return FoldingComparison(hcd, folded, rep)


@dataclass
class InductionComparison:
    hh_induced: list
    hh_base: list
    hc_induced: list
    hc_base: list
    report: CheckReport


def shapiro_check(
    sub: HopfSubalgebra, h: HopfAlgebra, n: CrossedModule, low: int, high: int,
) -> InductionComparison:
    """Hochschild and cyclic homology are invariant under induction along a
    Hopf subalgebra inclusion (the ambient algebra is free over the
    subalgebra in our finite-dimensional setting; the dimension count in the
    induced-module constructor certifies that).  Both sides are computed
    independently."""
    ind = induce(sub, h, n)
    z_big = build_cyclic(h, ind, high + 1)
    z_small = build_cyclic(sub.sub, n, high + 1)
    hh_big = hochschild(z_big, low, high)
    hh_small = hochschild(z_small, low, high)
    hc_big = hc_connes(z_big, low, high)
    hc_small = hc_connes(z_small, low, high)
    rep = CheckReport(f"induction invariance for {n.name} along {sub.sub.name} in {h.name}")
    rep.agree_by_degree(range(low, high + 1),
                        ("Hochschild dims agree", {"induced": hh_big, "base": hh_small}),
                        ("cyclic dims agree", {"induced": hc_big, "base": hc_small}))
    return InductionComparison(hh_big, hh_small, hc_big, hc_small, rep)


@dataclass
class ReductionComparison:
    reduced_algebra: HopfAlgebra
    reduced_module: CrossedModule
    hh_top: list
    hh_reduced: list
    hc_top: list | None
    hc_reduced: list | None
    folded: list | None
    report: CheckReport


def semisimple_reduction(
    h: HopfAlgebra, sub: HopfSubalgebra, m: CrossedModule, low: int, high: int,
) -> ReductionComparison:
    """Collapse a normal separable Hopf subalgebra: homology of (H, M) equals
    homology of (H/K+H, M/K+M).  Separability is certified by actually
    solving for a separability element; normality by the two-sided ideal
    comparison in the quotient construction.  When the coaction lands in
    M (x) K and the quotient is cocommutative, the folded-Tor form of the
    cyclic dimensions is checked as well."""
    f = h.field
    k = sub.sub
    separability_element(k, [k.unit])  # raises when absent
    hbar, proj = quotient_by_normal(h, sub)

    # the reduced module M / K+M: a m - eps(a) m for the algebra generators
    # a of K, since bc m - eps(bc) m = (b (c m) - eps(b) c m)
    # + eps(b) (c m - eps(c) m)
    tix = TensorIndex([m.dim])
    qm = QuotientSpace(m.dim, f, (
        r for a in algebra_generators(k, [{j: f.one} for j in range(k.dim)], k.name)
        for r in balancing_relators(tix, [(
            0, [m.act_vec(sub.inclusion.apply(a), {j: f.one}) for j in range(m.dim)],
            0, [{j: k.counit_vec(a)} for j in range(m.dim)],
        )])
    ))

    # a linear section of the projection
    sec_h = solve_matrix(proj, SparseMatrix.identity(hbar.dim, f))
    if sec_h is None:
        raise ValueError("the quotient projection admits no section")

    # action descends: specific lifts preserve the relators, and the ideal
    # annihilates the quotient module
    kplus = augmentation_ideal_vectors(k, sub.inclusion)
    for i in range(h.dim):
        for w in kplus:
            prod = h.product_vec({i: f.one}, w)
            for j in range(m.dim):
                img = m.act_vec(prod, {j: f.one})
                if qm.project_vec(img):
                    raise ValueError(
                        "the action does not descend to the reduced module"
                    )
    action = action_tensor(
        [qm.induced_matrix(
            SparseMatrix.from_columns(
                m.dim, f, [m.act_vec(sec_h.column(t), {j: f.one}) for j in range(m.dim)]),
            what="reduced action")
         for t in range(hbar.dim)],
        qm.dim, f,
    )
    # the coaction descends through both projections
    coaction = quotient_coaction(qm, m.coaction, proj,
                                 "the coaction on the reduced module")
    mbar = CrossedModule(hbar, qm.dim, action, coaction, name=f"{m.name}/aug")
    verify_crossed(mbar).require(mbar.name)

    z_top = build_cyclic(h, m, high + 1, require_modular=False)
    z_red = build_cyclic(hbar, mbar, high + 1, require_modular=False)
    hh_top = hochschild(z_top, low, high)
    hh_red = hochschild(z_red, low, high)
    rep = CheckReport(f"reduction of ({h.name}, {m.name}) along {k.name}")
    rep.agree_by_degree(range(low, high + 1),
                        ("Hochschild dims agree", {"full": hh_top, "reduced": hh_red}))

    hc_top = hc_red = None
    modular = u_map(m) == SparseMatrix.identity(m.dim, f)
    modular_red = u_map(mbar) == SparseMatrix.identity(mbar.dim, f)
    if f.characteristic == 0 and modular and modular_red:
        hc_top = hc_connes(z_top, low, high)
        hc_red = hc_connes(z_red, low, high)
        rep.agree_by_degree(range(low, high + 1),
                            ("cyclic dims agree", {"full": hc_top, "reduced": hc_red}))

    folded = None
    # does the coaction land in M (x) iota(K)?
    k_span = Subspace(h.dim, f, [sub.inclusion.column(a) for a in range(k.dim)])
    lands_in_k = True
    for j in range(m.dim):
        per_m: dict = {}
        for (j0, i1), c in m.coact_pairs(j):
            per_m.setdefault(j0, {})[i1] = c
        for hleg in per_m.values():
            if not k_span.contains(hleg):
                lands_in_k = False
                break
        if not lands_in_k:
            break
    if lands_in_k and hbar.is_cocommutative() and hc_top is not None:
        tor = tor_oracle(hbar, mbar, 0, high)
        folded = [_fold(tor, n) for n in range(low, high + 1)]
        rep.agree_by_degree(range(low, high + 1), (
            "cyclic dims match folded reduced Tor", {"hc": hc_top, "folded": folded}))
    return ReductionComparison(hbar, mbar, hh_top, hh_red, hc_top, hc_red, folded, rep)


def centralizer_homology(
    cd: CentralizerData, act_matrix: Callable[[int], SparseMatrix], high: int,
    component: str,
) -> list:
    """Group homology, degrees 0..high, of the centralizer quotient
    cd.quotient acting on the component of the class of cd.x, where
    act_matrix(y) is the matrix by which the centralizer element y acts.

    The action goes through coset representatives, certified independent of
    the choice: the class representative must act trivially, and every
    centralizer element must act as its representative does.  act_matrix is
    called once per centralizer element.
    """
    mats = [act_matrix(y) for y in cd.elements]
    dim, f = mats[0].nrows, mats[0].field
    xpos = cd.elements.index(cd.x)
    if mats[xpos] != SparseMatrix.identity(dim, f):
        raise ValueError(
            f"{cd.group.labels[xpos]} acts nontrivially on its {component} component"
        )
    reps = [mats[r] for r in cd.coset_reps]
    if any(mat != reps[cd.coset_of[pos]] for pos, mat in enumerate(mats)):
        raise ValueError(
            "the centralizer action does not factor through the quotient"
        )
    return group_homology(cd.quotient, dim, action_tensor(reps, dim, f), 0, high, field=f)


@dataclass
class CentralizerFolding:
    direct: list
    folded: list
    per_class: dict
    report: CheckReport


def burghelea_finite(
    g: FiniteGroup, m: CrossedModule, low: int, high: int
) -> CentralizerFolding:
    """Cyclic homology of a group algebra decomposes over conjugacy classes:
    fold the bar-resolution group homology of each centralizer quotient
    acting on the matching coaction component, and compare with the direct
    computation."""
    h = m.h
    if getattr(h, "group", None) is not g:
        raise ValueError("module is not over the group algebra of g")
    f = m.field
    if u_map(m) != SparseMatrix.identity(m.dim, f):
        raise ValueError("coefficients are not modular")

    z = build_cyclic(h, m, high + 1)
    direct = hc_connes(z, low, high)

    dec = decompose_group_case(m)
    dec.report.require("group decomposition")
    conj = conjugacy_data(g)
    per_class = {}
    for x, mx in dec.modules.items():
        # M_x is a module over the centralizer, basis in cd.elements order
        cd = conj.centralizers[x]
        per_class[g.labels[x]] = centralizer_homology(
            cd, lambda y: mx.act_matrix(cd.elements.index(y)), high, "coaction"
        )

    folded = []
    for n in range(low, high + 1):
        folded.append(sum(_fold(ghl, n) for ghl in per_class.values()))
    rep = CheckReport(f"centralizer folding for {h.name} with {m.name}")
    rep.agree_by_degree(range(low, high + 1), (
        "direct dims match the folded class formula", {"direct": direct, "folded": folded}))
    return CentralizerFolding(direct, folded, per_class, rep)
