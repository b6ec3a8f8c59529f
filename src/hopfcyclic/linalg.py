"""Exact sparse linear algebra over Q and over prime fields.

All homological computations in this package reduce to exact rank / kernel /
quotient computations on sparse matrices.  Everything here is exact.  Over Q
a scalar is a plain Python rational in one canonical form: an ``int`` when
the value is integral and a ``fractions.Fraction`` only when its denominator
is not 1, so the +-1 entries that fill most operators cost int arithmetic.
Elimination keeps integer rows (denominators cleared once per row, content
divided out after each update).  Prime-field work uses ints mod p wrapped in
a tiny element class so that generic code can use ordinary operators.

Conventions
-----------
* A vector is a dict {index: scalar} with no explicit zeros.
* A SparseMatrix is column-major: ``cols[j][i]`` is the (i, j) entry.  A
  matrix of shape (m, n) represents a linear map k^n -> k^m acting on column
  vectors.
* Every division goes through ``field.div``: ``int / int`` would give a
  float, and over Q the quotient must come back in canonical form.
* Elimination works on rows, selects pivots from the sparsest active column
  (Markowitz-style, preferring unit entries), and -- over Q -- keeps rows as
  content-reduced integer vectors, which preserves rank, kernel and row span.
* Echelon output is a list of (pivot_col, row) in retirement order; a row
  retired at step t has zero coefficient in every pivot column retired before
  t, which is what the forward-reduction and back-substitution passes rely on.
* Sub- and quotient objects go through ``Subspace`` and ``QuotientSpace``:
  ``induced_matrix`` restricts an operator to a subspace, or pushes it to a
  quotient, after checking that it is well defined there.
  ``QuotientSpace.induced_matrix`` is the one descent check in the package:
  every operator out of a quotient goes through it, and a map into a plain
  space uses a relator-free ``QuotientSpace`` as its target.
* A ``QuotientSpace`` eliminates only what it must.  Relators with one or
  two entries (a coordinate killed, or two coordinates identified up to a
  scalar, as the balancing and cyclic relators are on a basis of
  group-likes) are contracted by a weighted union-find, which is the
  fill-free part of elimination done as graph contraction; only relators
  with three or more entries, rewritten on the surviving roots, go to
  ``echelonize``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Iterator, Sequence


class LinAlgError(ValueError):
    """A matrix does not satisfy what the operation requires (e.g. singular)."""


class TruncationError(ValueError):
    """A homology degree was requested that the truncated data cannot certify."""


class WellDefinednessError(LinAlgError):
    """An operator does not descend to the requested quotient, or leaves the
    requested subspace."""


class ScalarError(ValueError):
    """A value is not a scalar of the field: a bad literal, a zero
    denominator, or a denominator divisible by the characteristic."""


# ---------------------------------------------------------------------------
# fields and scalars
# ---------------------------------------------------------------------------


class GFElement:
    """An element of GF(p); supports field arithmetic via operators."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def __add__(self, other):
        return GFElement(self.v + other.v, self.p)

    def __sub__(self, other):
        return GFElement(self.v - other.v, self.p)

    def __mul__(self, other):
        return GFElement(self.v * other.v, self.p)

    def __truediv__(self, other):
        if other.v == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return GFElement(self.v * pow(other.v, self.p - 2, self.p), self.p)

    def __neg__(self):
        return GFElement(-self.v, self.p)

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.v == other.v and self.p == other.p
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __repr__(self):
        return f"{self.v}"


def _parse_rational(x) -> Fraction:
    """An int or a literal like "2/3" as a Fraction; ScalarError otherwise."""
    if isinstance(x, bool) or not isinstance(x, (int, str, Fraction)):
        raise ScalarError(
            f"{x!r} is not a scalar: use an integer or a string like \"2/3\""
        )
    try:
        return Fraction(x)
    except ValueError as exc:
        raise ScalarError(f"{x!r} is not a rational literal") from exc
    except ZeroDivisionError as exc:
        raise ScalarError(f"{x!r} has a zero denominator") from exc


class RationalField:
    """The rationals.  A scalar is an ``int`` when it is integral and a
    ``Fraction`` only when its denominator is not 1; ``coerce`` and ``div``
    return that canonical form, and ``int`` arithmetic keeps it."""

    characteristic = 0
    name = "Q"
    zero = 0
    one = 1

    def from_int(self, n: int) -> int:
        return n

    def coerce(self, x) -> int | Fraction:
        if type(x) is int:
            return x
        q = _parse_rational(x)
        return q.numerator if q.denominator == 1 else q

    def div(self, a, b) -> int | Fraction:
        """a / b in canonical form; ZeroDivisionError when b is zero."""
        if type(a) is int and type(b) is int:
            q, r = divmod(a, b)
            if not r:
                return q
        q = Fraction(a, b)
        return q.numerator if q.denominator == 1 else q

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField:
    """GF(p) for prime p; scalars are GFElement and ``div`` is ``a / b``."""

    def __init__(self, p: int):
        # trial division stays cheap, and p**0.5 finite, below 2^31
        if p >= 2**31:
            raise ValueError("prime fields need p < 2^31")
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.name = f"F{p}"
        self.zero = GFElement(0, p)
        self.one = GFElement(1, p)

    def from_int(self, n: int) -> GFElement:
        return GFElement(n, self.p)

    def coerce(self, x) -> GFElement:
        if isinstance(x, GFElement):
            if x.p != self.p:
                raise TypeError("mixed prime fields")
            return x
        if type(x) is int:
            return GFElement(x, self.p)
        q = _parse_rational(x)
        if q.denominator % self.p == 0:
            raise ScalarError(f"{x!r} has a denominator divisible by {self.p}")
        return GFElement(q.numerator, self.p) / GFElement(q.denominator, self.p)

    def div(self, a: GFElement, b: GFElement) -> GFElement:
        return a / b

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()

Field = RationalField | PrimeField
Vec = dict  # {index: scalar}


# ---------------------------------------------------------------------------
# sparse vectors
# ---------------------------------------------------------------------------


def vec_iadd_scaled(target: Vec, src: Vec, c) -> Vec:
    """target += c * src, in place, dropping zeros."""
    if not c:
        return target
    for i, v in src.items():
        w = target.get(i)
        if w is None:
            target[i] = c * v
        else:
            w = w + c * v
            if w:
                target[i] = w
            else:
                del target[i]
    return target


def vec_add_at(v: Vec, key, val) -> None:
    """v[key] += val, in place, dropping the entry when the sum is zero."""
    cur = v.get(key)
    new = val if cur is None else cur + val
    if new:
        v[key] = new
    elif cur is not None:
        del v[key]


def vec_apply(column: Callable[[int], Vec | None], v: Vec) -> Vec:
    """The sum of v[j] * column(j), column(j) a vector or None, accumulated
    inline as a ``vec_iadd_scaled`` per j would: zero coefficients of v are
    skipped and entries that cancel are deleted."""
    out: Vec = {}
    for j, c in v.items():
        col = column(j)
        if col and c:
            for i, x in col.items():
                w = out.get(i)
                if w is None:
                    out[i] = c * x
                else:
                    w = w + c * x
                    if w:
                        out[i] = w
                    else:
                        del out[i]
    return out


def bilinear(cols: dict, inner_dim: int, u: Vec, v: Vec) -> Vec:
    """The sum of u[i] v[j] cols[i*inner_dim + j]: a bilinear map given by
    the columns of its structure tensor, as for a product or an action."""
    return vec_apply(cols.get, {i * inner_dim + j: a * b
                                for i, a in u.items() for j, b in v.items()})


def vec_scale(v: Vec, c) -> Vec:
    if not c:
        return {}
    return {i: c * x for i, x in v.items()}


def canonical_vec(v: Vec, field: Field) -> Vec:
    """Scale a nonzero vector to a canonical representative.

    Over Q: coprime integers with the lowest-index entry positive.
    Over GF(p): lowest-index entry equal to 1.
    """
    if not v:
        return {}
    lead = min(v)
    if field.characteristic == 0:
        den = 1
        for x in v.values():
            den = den * x.denominator // gcd(den, x.denominator)
        ints = {i: int(x * den) for i, x in v.items()}
        g = 0
        for x in ints.values():
            g = gcd(g, x)
        if ints[lead] < 0:
            g = -g
        return {i: x // g for i, x in ints.items()}
    return vec_scale(v, field.div(field.one, v[lead]))


# ---------------------------------------------------------------------------
# sparse matrices
# ---------------------------------------------------------------------------


class SparseMatrix:
    """Column-major sparse matrix over an exact field."""

    __slots__ = ("nrows", "ncols", "field", "cols")

    def __init__(self, nrows: int, ncols: int, field: Field, cols: dict | None = None):
        self.nrows = nrows
        self.ncols = ncols
        self.field = field
        self.cols = cols if cols is not None else {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_entries(cls, nrows, ncols, field, entries: Iterable) -> "SparseMatrix":
        cols: dict = {}
        for i, j, val in entries:
            val = field.coerce(val)
            if not val:
                continue
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise LinAlgError(f"entry ({i},{j}) outside shape ({nrows},{ncols})")
            vec_add_at(cols.setdefault(j, {}), i, val)
        for j in [j for j, c in cols.items() if not c]:
            del cols[j]
        return cls(nrows, ncols, field, cols)

    @classmethod
    def from_columns(cls, nrows, field, columns: Sequence[Vec]) -> "SparseMatrix":
        cols = {j: dict(c) for j, c in enumerate(columns) if c}
        return cls(nrows, len(columns), field, cols)

    @classmethod
    def from_rows_dense(cls, rows: Sequence[Sequence], field: Field) -> "SparseMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        ent = [
            (i, j, v) for i, row in enumerate(rows) for j, v in enumerate(row) if v
        ]
        return cls.from_entries(nrows, ncols, field, ent)

    @classmethod
    def identity(cls, n: int, field: Field) -> "SparseMatrix":
        one = field.one
        return cls(n, n, field, {j: {j: one} for j in range(n)})

    @classmethod
    def zero(cls, nrows: int, ncols: int, field: Field) -> "SparseMatrix":
        return cls(nrows, ncols, field, {})

    @classmethod
    def permutation(cls, perm: Sequence[int], field: Field) -> "SparseMatrix":
        """Matrix sending basis vector j to basis vector perm[j]."""
        n = len(perm)
        one = field.one
        return cls(n, n, field, {j: {perm[j]: one} for j in range(n)})

    # -- access -------------------------------------------------------------

    def column(self, j: int) -> Vec:
        return dict(self.cols.get(j, ()))

    def entry(self, i: int, j: int):
        return self.cols.get(j, {}).get(i, self.field.zero)

    def columns(self) -> Iterator[tuple[int, Vec]]:
        return iter(self.cols.items())

    def rows(self) -> dict:
        """Row-major copy {i: {j: val}}."""
        rows: dict = {}
        for j, col in self.cols.items():
            for i, v in col.items():
                rows.setdefault(i, {})[j] = v
        return rows

    def nnz(self) -> int:
        return sum(len(c) for c in self.cols.values())

    def is_zero(self) -> bool:
        return not self.cols

    def to_dense(self) -> list:
        out = [[self.field.zero] * self.ncols for _ in range(self.nrows)]
        for j, col in self.cols.items():
            for i, v in col.items():
                out[i][j] = v
        return out

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.cols == other.cols
        )

    def __repr__(self):
        return f"<SparseMatrix {self.nrows}x{self.ncols} over {self.field.name}, nnz={self.nnz()}>"

    # -- arithmetic ----------------------------------------------------------

    def apply(self, v: Vec) -> Vec:
        return vec_apply(self.cols.get, v)

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.ncols != other.nrows:
            raise LinAlgError(
                f"shape mismatch: ({self.nrows},{self.ncols}) @ ({other.nrows},{other.ncols})"
            )
        cols = {}
        column = self.cols.get
        for j, col in other.cols.items():
            out = vec_apply(column, col)
            if out:
                cols[j] = out
        return SparseMatrix(self.nrows, other.ncols, self.field, cols)

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise LinAlgError("shape mismatch in addition")
        cols = {j: dict(c) for j, c in self.cols.items()}
        one = self.field.one
        for j, c in other.cols.items():
            tgt = cols.setdefault(j, {})
            vec_iadd_scaled(tgt, c, one)
            if not tgt:
                del cols[j]
        return SparseMatrix(self.nrows, self.ncols, self.field, cols)

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self + other.scale(-self.field.one)

    def __neg__(self) -> "SparseMatrix":
        return self.scale(-self.field.one)

    def scale(self, c) -> "SparseMatrix":
        if not c:
            return SparseMatrix.zero(self.nrows, self.ncols, self.field)
        cols = {j: {i: c * v for i, v in col.items()} for j, col in self.cols.items()}
        return SparseMatrix(self.nrows, self.ncols, self.field, cols)

    def transpose(self) -> "SparseMatrix":
        cols: dict = {}
        for j, col in self.cols.items():
            for i, v in col.items():
                cols.setdefault(i, {})[j] = v
        return SparseMatrix(self.ncols, self.nrows, self.field, cols)

    def kron(self, other: "SparseMatrix") -> "SparseMatrix":
        """Tensor product; index (a, b) flattens to a * other.n + b."""
        on, om = other.nrows, other.ncols
        cols: dict = {}
        for j1, c1 in self.cols.items():
            for j2, c2 in other.cols.items():
                col = {}
                for i1, v1 in c1.items():
                    base = i1 * on
                    for i2, v2 in c2.items():
                        col[base + i2] = v1 * v2
                cols[j1 * om + j2] = col
        return SparseMatrix(self.nrows * on, self.ncols * om, self.field, cols)

    def hstack(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.nrows != other.nrows:
            raise LinAlgError("row mismatch in hstack")
        cols = {j: dict(c) for j, c in self.cols.items()}
        for j, c in other.cols.items():
            cols[self.ncols + j] = dict(c)
        return SparseMatrix(self.nrows, self.ncols + other.ncols, self.field, cols)


def flip_matrix(d1: int, d2: int, field: Field) -> SparseMatrix:
    """The swap V1 (x) V2 -> V2 (x) V1 on flattened tensor indices."""
    one = field.one
    cols = {}
    for i in range(d1):
        for j in range(d2):
            cols[i * d2 + j] = {j * d1 + i: one}
    return SparseMatrix(d1 * d2, d1 * d2, field, cols)


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------


def _int_row(row: Vec) -> dict:
    """Clear denominators and content from a row over Q; integer values."""
    den = 1
    for x in row.values():
        den = den * x.denominator // gcd(den, x.denominator)
    ints = {j: int(x * den) for j, x in row.items() if x}
    g = 0
    for x in ints.values():
        g = gcd(g, x)
    if g > 1:
        ints = {j: x // g for j, x in ints.items()}
    return ints


def _normalize_int_row(row: dict) -> dict:
    g = 0
    for x in row.values():
        g = gcd(g, x)
        if g == 1:
            return row
    if g > 1:
        for j in list(row):
            row[j] //= g
    return row


def _ints_where_integral(v: Vec) -> None:
    """Over Q, replace in place each Fraction of v whose denominator is 1
    by its numerator: Fraction products and sums can land on integers."""
    for j, w in v.items():
        if type(w) is Fraction and w.denominator == 1:
            v[j] = w.numerator


class Echelon:
    """Result of row elimination: retired rows with their pivot columns.

    Triangular invariant: rows[t] has zero coefficient in pivots[s] for
    every s < t.  Reducing by rows[t] therefore never brings back an earlier
    pivot column, so ``reduce`` can visit steps through a min-heap holding
    only the pivots a vector actually meets and still perform the same
    updates, in the same order, as a scan over every retired row.  Over Q
    the retired rows hold ints; over GF(p) they hold GFElement.  The
    factor of each update is ``field.div(c, pivot entry)``, and over Q the
    residual comes back in canonical form (an int where integral).
    """

    __slots__ = ("field", "ncols", "pivots", "rows", "_pivot_set", "_leftovers",
                 "_step_of")

    def __init__(self, field: Field, ncols: int, pivots: list, rows: list):
        self.field = field
        self.ncols = ncols
        self.pivots = pivots
        self.rows = rows
        self._pivot_set = set(pivots)
        self._leftovers: list = []
        self._step_of: dict | None = None  # pivot column -> step, on first reduce

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def free_cols(self) -> list:
        piv = self._pivot_set
        return [j for j in range(self.ncols) if j not in piv]

    def reduce(self, v: Vec) -> Vec:
        """Eliminate all pivot columns from v; the residual is supported on
        free columns and is zero iff v lies in the row span."""
        step_of = self._step_of
        if step_of is None:
            step_of = self._step_of = {pc: t for t, pc in enumerate(self.pivots)}
        v = dict(v)
        heap = [t for t in map(step_of.get, v) if t is not None]
        heapq.heapify(heap)
        pivots, rows, div = self.pivots, self.rows, self.field.div
        push, pop = heapq.heappush, heapq.heappop
        while heap:
            t = pop(heap)
            pc = pivots[t]
            c = v.get(pc)
            if not c:  # cancelled since it was queued, or a duplicate entry
                continue
            row = rows[t]
            factor = -div(c, row[pc])
            for j, x in row.items():
                w = v.get(j)
                if w is None:
                    v[j] = factor * x
                    s = step_of.get(j)
                    if s is not None:
                        push(heap, s)
                else:
                    w = w + factor * x
                    if w:
                        v[j] = w
                    else:
                        del v[j]
        if self.field.characteristic == 0:
            _ints_where_integral(v)
        return v

    def kernel_basis(self) -> list:
        """Canonical basis of {x : Rx = 0 for every retired row R}."""
        fld = self.field
        order = list(range(len(self.pivots)))
        basis = []
        for f in self.free_cols():
            x: dict = {f: fld.one}
            for t in reversed(order):
                row = self.rows[t]
                pc = self.pivots[t]
                s = fld.zero
                for j, val in row.items():
                    if j != pc:
                        xc = x.get(j)
                        if xc:
                            s = s + val * xc
                if s:
                    x[pc] = fld.div(-s, row[pc])
            basis.append(canonical_vec(x, fld))
        return basis


def echelonize(rows: Iterable[Vec], field: Field, ncols: int, pivot_limit: int | None = None) -> Echelon:
    """Sparsity-pivoted Gaussian elimination on row vectors.

    ``pivot_limit`` restricts pivot choice to columns < pivot_limit (used for
    augmented solves, where right-hand-side columns must stay passive).

    ``col_rows[j]`` is exactly the set of active rows with a nonzero entry
    at j < limit.  A pivot step can change a victim's support only where the
    pivot row has entries, so each victim is updated in one pass over the
    pivot row, joining a column's set on fill and leaving it on cancellation.
    A column is queued as (1, j) only when its set goes from empty to one
    row.  A nonempty column always keeps an entry in the heap, stale or not,
    and the pop loop re-queues the true count on a stale hit; the push only
    lets a fresh singleton column come first.
    """
    limit = ncols if pivot_limit is None else pivot_limit
    rational = field.characteristic == 0
    active: dict = {}
    col_rows: dict = {}
    heap: list = []
    push = heapq.heappush

    rid = 0
    for r in rows:
        if rational:
            row = _int_row(r)
        else:
            row = {}
            for j, v in r.items():
                v = field.coerce(v)
                if v:
                    row[j] = v
        if row:
            active[rid] = row
            for j in row:
                if j < limit:
                    s = col_rows.get(j)
                    if s:
                        s.add(rid)
                    else:
                        col_rows[j] = {rid}
                        push(heap, (1, j))
            rid += 1

    pivots: list = []
    retired: list = []

    while heap:
        cnt, pc = heapq.heappop(heap)
        rows_here = col_rows.get(pc)
        if not rows_here or len(rows_here) != cnt:
            if rows_here:
                push(heap, (len(rows_here), pc))
            continue
        # pick the pivot row: prefer unit entries, then short rows
        best = None
        for r in rows_here:
            row = active[r]
            v = row[pc]
            key = (0 if (rational and v in (1, -1)) or (not rational) else 1, len(row), r)
            if best is None or key < best[0]:
                best = (key, r)
        prid = best[1]
        prow = active.pop(prid)
        pval = prow[pc]
        victims = col_rows.pop(pc)
        victims.discard(prid)
        for j in prow:
            if j < limit and j != pc:
                col_rows[j].discard(prid)
        # eliminate pc from the other rows, touching only the pivot row's columns
        for vrid in victims:
            vrow = active[vrid]
            vval = vrow[pc]
            if rational:
                g = gcd(pval, vval)
                ca, c = pval // g, -(vval // g)
                if ca != 1:
                    for j in vrow:
                        vrow[j] *= ca
            else:
                c = -field.div(vval, pval)
            for j, x in prow.items():
                w = vrow.get(j)
                if w is None:
                    vrow[j] = c * x
                    if j < limit:
                        s = col_rows.get(j)
                        if s:
                            s.add(vrid)
                        else:
                            col_rows[j] = {vrid}
                            push(heap, (1, j))
                else:
                    w = w + c * x
                    if w:
                        vrow[j] = w
                    else:
                        del vrow[j]
                        if j < limit and j != pc:
                            col_rows[j].discard(vrid)
            if not vrow:
                del active[vrid]
            elif rational:
                _normalize_int_row(vrow)
        pivots.append(pc)
        retired.append(prow)

    # rows left active have support only beyond the pivot limit
    ech = Echelon(field, ncols, pivots, retired)
    ech._leftovers = list(active.values())
    return ech


def rank(m: SparseMatrix) -> int:
    return echelonize(m.rows().values(), m.field, m.ncols).rank


def rank_kernel(m: SparseMatrix) -> tuple[int, list]:
    """Rank and a canonical kernel basis of the column-vector map m."""
    ech = echelonize(m.rows().values(), m.field, m.ncols)
    return ech.rank, ech.kernel_basis()


def solve_matrix(a: SparseMatrix, rhs: SparseMatrix):
    """One solution X of a @ X = rhs, or None if any column is inconsistent.

    Free variables are set to zero.  Augmented elimination: right-hand-side
    entries ride along in columns >= a.ncols and are never chosen as pivots.
    """
    if a.nrows != rhs.nrows:
        raise LinAlgError("shape mismatch in solve")
    field = a.field
    n = a.ncols
    rows = a.rows()
    rrows = rhs.rows()
    merged = []
    for i in range(a.nrows):
        row = dict(rows.get(i, ()))
        for j, v in rrows.get(i, {}).items():
            row[n + j] = v
        if row:
            merged.append(row)
    ech = echelonize(merged, field, n + rhs.ncols, pivot_limit=n)
    if ech._leftovers:  # equations 0 = nonzero rhs
        return None
    cols = {}
    order = list(range(ech.rank))
    for jrhs in range(rhs.ncols):
        x: dict = {}
        for t in reversed(order):
            row = ech.rows[t]
            pc = ech.pivots[t]
            acc = row.get(n + jrhs, field.zero)
            for j, val in row.items():
                if j != pc and j < n:
                    xc = x.get(j)
                    if xc:
                        acc = acc - val * xc
            val = field.div(acc, row[pc])
            if val:
                x[pc] = val
        if x:
            cols[jrhs] = x
    return SparseMatrix(n, rhs.ncols, field, cols)


def solve(a: SparseMatrix, b: Vec):
    """One solution of a @ x = b, or None."""
    rhs = SparseMatrix(a.nrows, 1, a.field, {0: dict(b)} if b else {})
    x = solve_matrix(a, rhs)
    return None if x is None else x.column(0)


# ---------------------------------------------------------------------------
# subspaces and quotients
# ---------------------------------------------------------------------------


class Subspace:
    """The span of a family of vectors inside k^ambient_dim.

    Sub-objects are built through ``coords`` and ``induced_matrix``: the
    first ``coords`` call eliminates the canonical basis once, augmented by
    identity columns, and every call reduces by that echelon.
    """

    def __init__(self, ambient_dim: int, field: Field, vectors: Iterable[Vec]):
        self.ambient_dim = ambient_dim
        self.field = field
        self._ech = echelonize(vectors, field, ambient_dim)
        self.basis = [
            canonical_vec({j: v for j, v in row.items()}, field)
            for row in self._ech.rows
        ]
        self._coord_ech: Echelon | None = None

    @property
    def dim(self) -> int:
        return self._ech.rank

    def contains(self, v: Vec) -> bool:
        return not self._ech.reduce(v)

    def basis_matrix(self) -> SparseMatrix:
        """Inclusion matrix: columns are the canonical basis vectors."""
        return SparseMatrix.from_columns(self.ambient_dim, self.field, self.basis)

    def coords(self, v: Vec):
        """Coordinates of v in the canonical basis, or None if outside.

        Row t of the augmented echelon is basis[t] (+) e_{ambient+t}, so v
        reduces to (v - sum x_t basis[t]) (+) (-x); an ambient residual
        means v is outside the span.
        """
        amb = self.ambient_dim
        if self._coord_ech is None:
            self._coord_ech = echelonize(
                [{**b, amb + t: self.field.one} for t, b in enumerate(self.basis)],
                self.field, amb + self.dim, pivot_limit=amb,
            )
        red = self._coord_ech.reduce(v)
        if any(j < amb for j in red):
            return None
        return {j - amb: -c for j, c in red.items()}

    def induced_matrix(self, op: SparseMatrix, what: str) -> SparseMatrix:
        """op restricted to the subspace, in the canonical basis; raises
        WellDefinednessError(what) when op maps a basis vector outside."""
        if op.ncols != self.ambient_dim or op.nrows != self.ambient_dim:
            raise LinAlgError("operator shape does not match the ambient space")
        cols = {}
        for t, b in enumerate(self.basis):
            coords = self.coords(op.apply(b))
            if coords is None:
                raise WellDefinednessError(what)
            if coords:
                cols[t] = coords
        return SparseMatrix(self.dim, self.dim, self.field, cols)


class QuotientSpace:
    """k^ambient_dim modulo the span of relator vectors.

    Relators are contracted before anything is eliminated.  One with a
    single entry kills its coordinate's class; one with two entries,
    a e_i + b e_j, says e_i = (-b/a) e_j, and these identities are merged in
    a weighted union-find rooted at the least coordinate of each component.
    A cycle whose factors do not multiply to 1 kills its component, and so
    does a merge with a killed component.  Relators with three or more
    entries are rewritten on the live roots and go to ``echelonize``.  The
    quotient basis consists of the live roots that are not pivot columns of
    that residual echelon.  While that echelon is empty, ``project_vec``
    reads one table, coordinate -> free index of its root (-1 when the
    class is killed), in one pass over the vector; otherwise it contracts
    onto the roots and reduces by the echelon.  ``section_vec`` embeds
    quotient basis vectors as ambient unit vectors (a genuine section:
    project o section = id).

    ``free_cols`` is fixed by the relator span while every relator has at
    most two entries; longer ones reach ``echelonize``, whose pivots depend
    on the order in which the relators arrive, so the same span can give
    another quotient basis.  No report depends on the choice: dimensions
    and homology do not, and any section serves as the basis
    representatives of an identity check on the free model.
    """

    def __init__(self, ambient_dim: int, field: Field, relators: Iterable[Vec]):
        self.ambient_dim = ambient_dim
        self.field = field
        one, coerce = field.one, field.coerce
        parent = list(range(ambient_dim))
        factor = [one] * ambient_dim  # e_i = factor[i] * e_parent[i]
        killed: set = set()  # roots whose class is zero

        def find(i: int) -> int:
            """The root of i; afterwards parent[i] is that root and
            factor[i] is relative to it."""
            r = parent[i]
            if parent[r] == r:
                return r
            path = [i]
            while parent[r] != r:
                path.append(r)
                r = parent[r]
            acc = one
            for node in reversed(path):
                acc = factor[node] * acc
                factor[node] = acc
                parent[node] = r
            return r

        longer = []
        for rel in relators:
            if len(rel) == 2:
                (i, a), (j, b) = rel.items()
                a, b = coerce(a), coerce(b)
                if not a:  # only b e_j is left
                    i, a, b = j, b, a
            elif len(rel) == 1:
                ((i, a),) = rel.items()
                a, b = coerce(a), None
            else:
                longer.append(rel)
                continue
            if not a:
                continue
            ri = i if parent[i] == i else find(i)
            if not b:
                killed.add(ri)
                continue
            rj = j if parent[j] == j else find(j)
            u, w = a * factor[i], b * factor[j]  # u e_ri + w e_rj = 0
            if ri == rj:
                if u + w:
                    killed.add(ri)
                continue
            if ri > rj:
                ri, rj, u, w = rj, ri, w, u
            parent[rj], factor[rj] = ri, field.div(-u, w)
            if rj in killed:
                killed.discard(rj)
                killed.add(ri)

        # compress every path: e_i = factor[i] * e_parent[i] with parent[i]
        # a root, and a root's factor stays one
        for i in range(ambient_dim):
            find(i)
        self._parent, self._factor, self._killed = parent, factor, killed
        residual = []
        for r in longer:
            row: Vec = {}
            for j, x in r.items():
                root = parent[j]
                if root not in killed:
                    vec_add_at(row, root, factor[j] * coerce(x))
            if row:
                residual.append(row)
        self._ech = echelonize(residual, field, ambient_dim)
        pivots = set(self._ech.pivots)
        self.free_cols = [
            i for i, root in enumerate(parent)
            if root == i and i not in killed and i not in pivots
        ]
        self._free_index = idx = {c: k for k, c in enumerate(self.free_cols)}
        # coordinate j -> the free index of its root, -1 when its class is
        # killed; project_vec reads it while no residual row is left
        self._table = None if self._ech.rows else [idx.get(r, -1) for r in parent]

    @property
    def dim(self) -> int:
        return len(self.free_cols)

    def project_vec(self, v: Vec) -> Vec:
        table, factor = self._table, self._factor
        out: Vec = {}
        if table is None:
            parent, killed, idx = self._parent, self._killed, self._free_index
            for j, x in v.items():
                root = parent[j]
                if root not in killed:
                    vec_add_at(out, root, factor[j] * x)
            return {idx[j]: val for j, val in self._ech.reduce(out).items()}
        fraction = False
        for j, x in v.items():
            k = table[j]
            if k >= 0:
                w = factor[j] * x
                fraction = fraction or type(w) is Fraction
                cur = out.get(k)  # vec_add_at inlined: once per entry projected
                if cur is not None:
                    w = cur + w
                if w:
                    out[k] = w
                elif cur is not None:
                    del out[k]
        if fraction:
            _ints_where_integral(out)
        return out

    def section_vec(self, k: int) -> Vec:
        return {self.free_cols[k]: self.field.one}

    def projection_matrix(self) -> SparseMatrix:
        one = self.field.one
        cols = {}
        for j in range(self.ambient_dim):
            col = self.project_vec({j: one})
            if col:
                cols[j] = col
        return SparseMatrix(self.dim, self.ambient_dim, self.field, cols)

    def section_matrix(self) -> SparseMatrix:
        cols = {k: {c: self.field.one} for k, c in enumerate(self.free_cols)}
        return SparseMatrix(self.ambient_dim, self.dim, self.field, cols)

    def _relator_basis(self) -> Iterator[Vec]:
        """A basis of the relator span: e_i - f e_root for every coordinate
        i that is not a root, e_root for every killed root, and the rows of
        the residual echelon."""
        one = self.field.one
        for i, (root, c) in enumerate(zip(self._parent, self._factor)):
            if root != i:
                yield {i: one, root: -c}
            elif i in self._killed:
                yield {i: one}
        yield from self._ech.rows

    def induced_matrix(
        self,
        op: SparseMatrix,
        source: "QuotientSpace | None" = None,
        what: str = "operator",
    ) -> SparseMatrix:
        """Transport an ambient operator to the quotient(s).

        op maps the source ambient space into this quotient's ambient space.
        Every vector of the source's ``_relator_basis`` must map into this
        quotient's relator span -- the well-definedness criterion, checked
        on the projected images of op's columns, in the basis order: class
        by class, a coordinate i with root r and factor c needs image(i) =
        c image(r) and a killed root an empty image; only the residual
        echelon rows are summed.  Violations raise
        WellDefinednessError("<what> does not preserve the relator span"),
        so `what` is a noun phrase.  With no relators here, this checks that
        op kills the source relators.
        """
        src = source if source is not None else self
        if op.ncols != src.ambient_dim or op.nrows != self.ambient_dim:
            raise LinAlgError("operator shape does not match ambient spaces")
        empty: Vec = {}
        images = [self.project_vec(op.cols.get(j, empty))
                  for j in range(src.ambient_dim)]
        message = f"{what} does not preserve the relator span"
        one, killed = src.field.one, src._killed
        for i, (root, c) in enumerate(zip(src._parent, src._factor)):
            if root != i:
                image = images[root]
                if c != one:
                    image = {k: c * x for k, x in image.items()}
                ok = images[i] == image
            else:
                ok = not images[i] or i not in killed
            if not ok:
                raise WellDefinednessError(message)
        for rvec in src._ech.rows:
            if vec_apply(images.__getitem__, rvec):
                raise WellDefinednessError(message)
        cols = {}
        for k, c in enumerate(src.free_cols):
            if images[c]:
                cols[k] = images[c]
        return SparseMatrix(self.dim, src.dim, self.field, cols)


# ---------------------------------------------------------------------------
# Smith normal form over Z
# ---------------------------------------------------------------------------


def _ident(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _row_op(m: list, i: int, k: int, c: int):
    m[i] = [a + c * b for a, b in zip(m[i], m[k])]


def _col_op(m: list, j: int, k: int, c: int):
    for row in m:
        row[j] += c * row[k]


def _swap_rows(m: list, i: int, k: int):
    m[i], m[k] = m[k], m[i]


def _swap_cols(m: list, j: int, k: int):
    for row in m:
        row[j], row[k] = row[k], row[j]


def int_det(m: Sequence[Sequence[int]]) -> Fraction:
    """Exact determinant of a small integer matrix (fraction Gaussian)."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for r in range(c + 1, n):
            if a[r][c]:
                f = a[r][c] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def smith_normal_form(m: Sequence[Sequence[int]]):
    """U, D, V with U m V = D diagonal, d_i | d_{i+1}, U, V unimodular.

    Input is a dense integer matrix (list of rows); outputs are dense.
    """
    a = [list(map(int, row)) for row in m]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    u = _ident(nr)
    v = _ident(nc)

    def min_entry(t):
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                x = a[i][j]
                if x and (best is None or abs(x) < abs(best[2])):
                    best = (i, j, x)
        return best

    t = 0
    while t < min(nr, nc):
        found = min_entry(t)
        if found is None:
            break
        i, j, _ = found
        if i != t:
            _swap_rows(a, t, i)
            _swap_rows(u, t, i)
        if j != t:
            _swap_cols(a, t, j)
            _swap_cols(v, t, j)
        dirty = False
        for r in range(t + 1, nr):
            if a[r][t]:
                q = a[r][t] // a[t][t]
                _row_op(a, r, t, -q)
                _row_op(u, r, t, -q)
                if a[r][t]:
                    dirty = True
        for c in range(t + 1, nc):
            if a[t][c]:
                q = a[t][c] // a[t][t]
                _col_op(a, c, t, -q)
                _col_op(v, c, t, -q)
                if a[t][c]:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility of the remaining block
        bad = None
        for r in range(t + 1, nr):
            for c in range(t + 1, nc):
                if a[r][c] % a[t][t]:
                    bad = r
                    break
            if bad is not None:
                break
        if bad is not None:
            _row_op(a, t, bad, 1)
            _row_op(u, t, bad, 1)
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    d = [[a[i][j] if i == j else 0 for j in range(nc)] for i in range(nr)]
    # certify: the loop really produced a diagonal divisibility chain
    if a != d:
        raise LinAlgError("SNF reduction left off-diagonal residue")
    for k in range(min(nr, nc) - 1):
        if d[k][k] and d[k + 1][k + 1] % d[k][k]:
            raise LinAlgError("SNF divisibility chain violated")
    if abs(int_det(u)) != 1 or abs(int_det(v)) != 1:
        raise LinAlgError("SNF transforms are not unimodular")
    return u, d, v


def mat_mul_int(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list:
    return [
        [sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a
    ]


# ---------------------------------------------------------------------------
# chain complexes
# ---------------------------------------------------------------------------


class ChainComplex:
    """A nonnegatively graded chain complex truncated at top_degree.

    dims[n] is the dimension of the degree-n term; diff(n) is the boundary
    C_n -> C_{n-1} for 1 <= n <= top_degree.  The composite of consecutive
    boundaries is verified to vanish at construction time, by ``raise``.

    Ranks are computed bottom-up with compression (Chen-Kerber, *Persistent
    homology computation with a twist*, 2011; Bauer-Kerber-Reininghaus,
    *Clear and compress*, 2014): d_{n+1} is eliminated without its rows at
    P_n, the pivot columns of d_n's echelon.  The retired rows restricted to
    P_n are triangular, so dropping P_n is injective on ker d_n, which holds
    im d_{n+1} by the d o d = 0 check of ``__init__``: the rank is unchanged.
    """

    def __init__(self, dims: Sequence[int], diffs: Sequence[SparseMatrix], field: Field):
        self.dims = list(dims)
        self.field = field
        self.top_degree = len(dims) - 1
        if len(diffs) != self.top_degree:
            raise LinAlgError("need exactly one boundary per positive degree")
        self._diffs = list(diffs)
        self._pivots: list = [set()]  # P_0, P_1, ..., filled bottom-up
        for n, d in enumerate(self._diffs, start=1):
            if d.ncols != self.dims[n] or d.nrows != self.dims[n - 1]:
                raise LinAlgError(f"boundary {n} has wrong shape")
        for n in range(2, self.top_degree + 1):
            if not (self.diff(n - 1) @ self.diff(n)).is_zero():
                raise LinAlgError(f"boundary squared is nonzero at degree {n}")

    def diff(self, n: int) -> SparseMatrix:
        if not 1 <= n <= self.top_degree:
            raise TruncationError(f"no boundary stored at degree {n}")
        return self._diffs[n - 1]

    def boundary_rank(self, n: int) -> int:
        if n <= 0 or n > self.top_degree:
            return 0
        piv = self._pivots
        for k in range(len(piv), n + 1):
            rows = self._diffs[k - 1].rows().items()
            piv.append(set(echelonize([r for i, r in rows if i not in piv[k - 1]],
                                      self.field, self.dims[k]).pivots))
        return len(piv[n])

    def homology_dim(self, n: int) -> int:
        if n < 0 or n > self.top_degree - 1:
            raise TruncationError(
                f"H_{n} needs the boundary from degree {n + 1}; "
                f"complex is truncated at {self.top_degree}"
            )
        return self.dims[n] - self.boundary_rank(n) - self.boundary_rank(n + 1)


def homology_dims(c: ChainComplex, low: int, high: int) -> list[int]:
    """[dim H_n for n in low..high]; raises TruncationError when the data
    cannot certify a requested degree.  The boundaries below ``low`` are
    eliminated too: their pivots compress the ones above."""
    if low < 0 or high > c.top_degree - 1:
        raise TruncationError(
            f"homology range [{low},{high}] not certified by a complex "
            f"truncated at degree {c.top_degree}"
        )
    return [c.homology_dim(n) for n in range(low, high + 1)]


class Bicomplex:
    """First-quadrant bicomplex with anticommuting squares.

    cells maps (p, q) -> dimension; horiz[(p, q)] : (p, q) -> (p-1, q) and
    vert[(p, q)] : (p, q) -> (p, q-1).  Construction verifies h o h = 0,
    v o v = 0 and h o v + v o h = 0 wherever all participating cells exist.

    Each equation is multiplied once.  With T the last diagonal through
    which every cell exists, the cells with p + q <= T are checked by the
    d o d = 0 check of the total complex through degree T, whose blocks out
    of cell (p, q) are h o h, v o v and h v + v h; that complex is built
    here and kept for ``total_complex``.  The cells above T are checked one
    by one, in cell order.  When the total complex fails its check, every
    cell is checked one by one instead, so the first failing cell raises
    with its own message.
    """

    def __init__(self, cells: dict, horiz: dict, vert: dict, field: Field):
        self.cells = dict(cells)
        self.horiz = dict(horiz)
        self.vert = dict(vert)
        self.field = field
        for (p, q), m in self.horiz.items():
            if m.ncols != self.cells[(p, q)] or m.nrows != self.cells[(p - 1, q)]:
                raise LinAlgError(f"horizontal map at {(p, q)} has wrong shape")
        for (p, q), m in self.vert.items():
            if m.ncols != self.cells[(p, q)] or m.nrows != self.cells[(p, q - 1)]:
                raise LinAlgError(f"vertical map at {(p, q)} has wrong shape")
        top = 0
        while all((p, top - p) in self.cells for p in range(top + 1)):
            top += 1
        top -= 1  # the last complete diagonal, -1 without cell (0, 0)
        self._total = None
        if top >= 0:
            try:
                self._total = _total_complex(self, top)
            except LinAlgError:
                top = -1  # search every cell for the one that fails
        for (p, q) in self.cells:
            if p + q > top:
                self._check_cell(p, q)

    def _check_cell(self, p: int, q: int) -> None:
        """h o h = 0, v o v = 0 and h v + v h = 0 out of cell (p, q)."""
        h1 = self.horiz.get((p, q))
        h2 = self.horiz.get((p - 1, q))
        if h1 is not None and h2 is not None and not (h2 @ h1).is_zero():
            raise LinAlgError(f"horizontal squared nonzero at {(p, q)}")
        v1 = self.vert.get((p, q))
        v2 = self.vert.get((p, q - 1))
        if v1 is not None and v2 is not None and not (v2 @ v1).is_zero():
            raise LinAlgError(f"vertical squared nonzero at {(p, q)}")
        hv = (
            self.horiz.get((p, q - 1)),
            self.vert.get((p - 1, q)),
        )
        if v1 is not None and h1 is not None and hv[0] is not None and hv[1] is not None:
            if not (hv[0] @ v1 + hv[1] @ h1).is_zero():
                raise LinAlgError(f"square at {(p, q)} does not anticommute")


def total_complex(b: Bicomplex, max_total_degree: int) -> ChainComplex:
    """Tot_n = direct sum of cells with p + q = n.

    The output complex runs through degree max_total_degree + 1 so that
    homology is certifiable through max_total_degree; every cell on the
    diagonals p + q <= max_total_degree + 1 must be populated (zero
    dimensions are fine), otherwise the truncation is insufficient.  When
    these are exactly the complete diagonals of b, this is the complex that
    ``Bicomplex`` built and certified, and nothing is multiplied again.
    """
    tot = b._total
    if tot is not None and tot.top_degree == max_total_degree + 1:
        return tot
    return _total_complex(b, max_total_degree + 1)


def _total_complex(b: Bicomplex, top: int) -> ChainComplex:
    """The total complex of b through degree top, its d o d checked."""
    layouts = []
    dims = []
    for n in range(top + 1):
        cells = sorted((p, q) for (p, q) in b.cells if p + q == n)
        missing = [
            (p, n - p) for p in range(n + 1) if (p, n - p) not in b.cells
        ]
        if missing:
            raise TruncationError(
                f"total degree {n} needs missing cell(s) {missing}"
            )
        offs = {}
        o = 0
        for cell in cells:
            offs[cell] = o
            o += b.cells[cell]
        layouts.append(offs)
        dims.append(o)
    diffs = []
    for n in range(1, top + 1):
        src = layouts[n]
        tgt = layouts[n - 1]
        # the vertical and horizontal blocks of a cell land in different
        # target cells, so the blocks go straight into the columns
        cols: dict = {}
        for (p, q), off in src.items():
            for mp, cell_t in ((b.vert.get((p, q)), (p, q - 1)), (b.horiz.get((p, q)), (p - 1, q))):
                if mp is None or cell_t not in tgt:
                    continue
                toff = tgt[cell_t]
                for j, col in mp.cols.items():
                    block = {toff + i: v for i, v in col.items() if v}
                    if block:
                        cols.setdefault(off + j, {}).update(block)
        diffs.append(SparseMatrix(dims[n - 1], dims[n], b.field, cols))
    return ChainComplex(dims, diffs, b.field)


@dataclass
class DegreeComparison:
    degree: int
    source_dim: int
    target_dim: int
    induced_rank: int

    @property
    def iso(self) -> bool:
        return self.source_dim == self.target_dim == self.induced_rank


@dataclass
class QuasiIsoReport:
    chain_map_ok: bool
    degrees: list
    witness: str | None = None

    @property
    def ok(self) -> bool:
        return self.chain_map_ok and all(d.iso for d in self.degrees)


def quasi_iso_check(
    f: dict, c: ChainComplex, d: ChainComplex, low: int, high: int
) -> QuasiIsoReport:
    """Certify that a chain map induces isomorphisms H_n(C) -> H_n(D).

    f maps degrees to matrices f[n] : C_n -> D_n.  For each degree the rank
    of the induced map is computed exactly as rank([f K | im]) - rank(im)
    where K is a kernel basis upstairs and im the boundary image downstairs.
    """
    witness = next((
        f"chain-map square fails at degree {n}" for n, fn in sorted(f.items())
        if n - 1 in f and 1 <= n <= min(c.top_degree, d.top_degree)
        and d.diff(n) @ fn != f[n - 1] @ c.diff(n)), None)
    degrees = []
    for n in range(low, high + 1):
        if n not in f:
            raise TruncationError(f"no chain-map component at degree {n}")
        hc = c.homology_dim(n)
        hd = d.homology_dim(n)
        if n == 0:
            kernel = [
                {j: c.field.one} for j in range(c.dims[0])
            ]
        else:
            _, kernel = rank_kernel(c.diff(n))
        fk = SparseMatrix.from_columns(
            d.dims[n], d.field, [f[n].apply(v) for v in kernel]
        )
        if n + 1 <= d.top_degree:
            bd = d.diff(n + 1)
        else:
            raise TruncationError(
                f"image at degree {n} needs the boundary from degree {n + 1}"
            )
        stacked = fk.hstack(bd)
        induced = rank(stacked) - d.boundary_rank(n + 1)
        degrees.append(DegreeComparison(n, hc, hd, induced))
    return QuasiIsoReport(witness is None, degrees, witness)
