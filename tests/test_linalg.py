"""Exact linear algebra: frozen examples plus randomized structural laws."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopfcyclic import cyclic
from hopfcyclic.crossed import adjoint
from hopfcyclic.hopf import FiniteGroup, group_algebra, sweedler_h4
from hopfcyclic.linalg import (
    QQ,
    Bicomplex,
    ChainComplex,
    LinAlgError,
    PrimeField,
    QuotientSpace,
    SparseMatrix,
    Subspace,
    TruncationError,
    WellDefinednessError,
    echelonize,
    flip_matrix,
    homology_dims,
    int_det,
    mat_mul_int,
    quasi_iso_check,
    rank,
    rank_kernel,
    smith_normal_form,
    solve,
    solve_matrix,
    total_complex,
    vec_add_at,
    vec_iadd_scaled,
)

GF5 = PrimeField(5)


def dense(rows, field=QQ):
    return SparseMatrix.from_rows_dense(rows, field)


small_mats = st.lists(
    st.lists(st.integers(-6, 6), min_size=1, max_size=5),
    min_size=1,
    max_size=5,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


# -- frozen elimination examples -------------------------------------------


def test_rank_kernel_frozen_example():
    m = dense([[1, 2], [2, 4]])
    r, kernel = rank_kernel(m)
    assert r == 1
    assert kernel == [{0: Fraction(2), 1: Fraction(-1)}]


def test_identity_and_zero_rank():
    assert rank(SparseMatrix.identity(4, QQ)) == 4
    assert rank(SparseMatrix.zero(3, 5, QQ)) == 0
    r, kernel = rank_kernel(SparseMatrix.zero(3, 2, QQ))
    assert r == 0 and len(kernel) == 2


def test_snf_frozen_examples():
    u, d, v = smith_normal_form([[2, 0], [0, 3]])
    assert [d[0][0], d[1][1]] == [1, 6]
    u, d, v = smith_normal_form([[0, 1], [-1, 0]])
    assert [d[0][0], d[1][1]] == [1, 1]


def test_snf_transforms_multiply_back():
    m = [[4, 6, 2], [2, 8, 10]]
    u, d, v = smith_normal_form(m)
    assert mat_mul_int(mat_mul_int(u, m), v) == d
    assert abs(int_det(u)) == 1 and abs(int_det(v)) == 1


# -- randomized structural laws --------------------------------------------


@settings(max_examples=60, deadline=None)
@given(small_mats)
def test_rank_plus_kernel_dim_is_ncols(rows):
    m = dense(rows)
    r, kernel = rank_kernel(m)
    assert r + len(kernel) == m.ncols
    for v in kernel:
        assert not m.apply(v)


@settings(max_examples=40, deadline=None)
@given(small_mats)
def test_rank_equals_transpose_rank(rows):
    m = dense(rows)
    assert rank(m) == rank(m.transpose())


@settings(max_examples=40, deadline=None)
@given(small_mats)
def test_gf5_rank_never_exceeds_rational_rank(rows):
    mq = dense(rows)
    mp = dense(rows, GF5)
    assert rank(mp) <= rank(mq)


@settings(max_examples=40, deadline=None)
@given(small_mats)
def test_snf_random(rows):
    u, d, v = smith_normal_form(rows)
    assert mat_mul_int(mat_mul_int(u, rows), v) == d
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    assert abs(int_det(u)) == 1 and abs(int_det(v)) == 1


@settings(max_examples=40, deadline=None)
@given(small_mats, st.integers(0, 4))
def test_solve_consistency(rows, col_seed):
    m = dense(rows)
    # right-hand side guaranteed consistent: an actual column combination
    x0 = {j: Fraction((j + col_seed) % 3 - 1) for j in range(m.ncols)}
    b = m.apply(x0)
    x = solve(m, b)
    assert x is not None
    assert m.apply(x) == b


def test_solve_inconsistent_returns_none():
    m = dense([[1, 0], [1, 0]])
    assert solve(m, {0: Fraction(1), 1: Fraction(2)}) is None


def _apply_reference(cols: dict, v: dict) -> dict:
    """sum v[j] cols[j] as one vec_iadd_scaled per entry of v: the loop
    that SparseMatrix.apply accumulates inline."""
    out: dict = {}
    for j, c in v.items():
        col = cols.get(j)
        if col:
            vec_iadd_scaled(out, col, c)
    return out


@st.composite
def apply_cases(draw):
    """(field, nrows, ncols, columns, vector) over Q or GF(5), with small
    entries so that sums cancel, stored zero entries in both, and over Q
    the same values as int or as Fraction."""
    field = draw(st.sampled_from([QQ, GF5]))
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 6))

    def scalar():
        k = draw(st.integers(-2, 2))
        return Fraction(k) if field is QQ and draw(st.booleans()) else field.coerce(k)

    cols = {j: {i: scalar() for i in draw(st.sets(st.integers(0, nrows - 1)))}
            for j in draw(st.sets(st.integers(0, ncols - 1)))}
    v = {j: scalar() for j in draw(st.sets(st.integers(0, ncols - 1)))}
    return field, nrows, ncols, cols, v


@settings(max_examples=300, deadline=None)
@given(apply_cases())
# a stored zero coefficient adds nothing, not a zero entry
@example((QQ, 1, 1, {0: {0: 1}}, {0: Fraction(0, 1)}))
# e0 - e0 cancels to the empty vector
@example((GF5, 1, 2, {0: {0: GF5.one}, 1: {0: GF5.coerce(4)}}, {0: GF5.one, 1: GF5.one}))
def test_apply_matches_the_per_entry_loop(case):
    """SparseMatrix.apply, and @ column by column, give the vector the
    vec_iadd_scaled loop gives, entry order included."""
    field, nrows, ncols, cols, v = case
    m = SparseMatrix(nrows, ncols, field, cols)
    want = _apply_reference(cols, v)
    assert list(m.apply(v).items()) == list(want.items())
    prod = m @ SparseMatrix(ncols, 1, field, {0: v})
    assert prod.cols == ({0: want} if want else {})


def test_matmul_and_kron_shapes():
    a = dense([[1, 2], [0, 1]])
    b = dense([[1], [3]])
    assert (a @ b).to_dense() == [[Fraction(7)], [Fraction(3)]]
    k = a.kron(b)
    assert (k.nrows, k.ncols) == (4, 2)
    f = flip_matrix(2, 3, QQ)
    assert f @ f.transpose() == SparseMatrix.identity(6, QQ)


# -- subspaces and quotients -------------------------------------------------


def test_quotient_projection_section():
    # relator e0 - e1 in k^3: quotient has dim 2
    q = QuotientSpace(3, QQ, [{0: Fraction(1), 1: Fraction(-1)}])
    assert q.dim == 2
    for k in range(q.dim):
        assert q.project_vec(q.section_vec(k)) == {k: Fraction(1)}
    assert q.project_vec({0: Fraction(1)}) == q.project_vec({1: Fraction(1)})
    assert not q.project_vec({0: Fraction(2), 1: Fraction(-2)})


def test_quotient_induced_operator_well_definedness():
    # swap of e0,e1 descends over the relator e0-e1; the map killing e1 does not
    q = QuotientSpace(2, QQ, [{0: Fraction(1), 1: Fraction(-1)}])
    swap = SparseMatrix.permutation([1, 0], QQ)
    ind = q.induced_matrix(swap)
    assert ind == SparseMatrix.identity(1, QQ)
    bad = dense([[1, 0], [0, 0]])
    with pytest.raises(WellDefinednessError):
        q.induced_matrix(bad)


@st.composite
def relator_sets(draw):
    """A field, an ambient dimension, relators with 1, 2 and 4 entries, and
    a test vector: a combination of the relators plus optional noise."""
    field = draw(st.sampled_from([QQ, GF5]))
    ncols = draw(st.integers(1, 8))
    scalar = st.tuples(st.integers(-3, 3).filter(bool), st.integers(1, 3)).map(
        lambda ab: field.coerce(Fraction(*ab)))
    sizes = [size for size in (1, 2, 4) if size <= ncols]
    relators = []
    for size in draw(st.lists(st.sampled_from(sizes), max_size=10)):
        cols = draw(st.lists(st.integers(0, ncols - 1), min_size=size,
                             max_size=size, unique=True))
        relators.append({j: draw(scalar) for j in cols})
    v: dict = {}
    for r in relators:
        vec_iadd_scaled(v, r, field.from_int(draw(st.integers(-2, 2))))
    noise = draw(st.dictionaries(st.integers(0, ncols - 1), scalar, max_size=2))
    return field, ncols, relators, vec_iadd_scaled(dict(noise), v, field.one)


@settings(max_examples=300, deadline=None)
@given(relator_sets())
# e0 = 2 e1 and e1 = e0: the cycle's factors multiply to 2, both classes die
@example((QQ, 3, [{0: 1, 1: -2}, {1: 1, 0: -1}], {2: 1}))
# over GF(5), e0 = 2 e1 and e1 = 3 e0 multiply to 6 = 1: nothing dies
@example((GF5, 3, [{0: GF5.one, 1: GF5.coerce(-2)},
                   {1: GF5.one, 0: GF5.coerce(-3)}], {0: GF5.one}))
# e1 = 2 e2, then e0 = 3 e1: the path 2 -> 1 -> 0 compresses to e2 = e0 / 6
@example((QQ, 3, [{1: 1, 2: -2}, {0: 1, 1: -3}], {2: 1}))
# a killed component merged into a live one kills the result
@example((QQ, 4, [{2: 1, 3: 1}, {2: 1, 3: -1}, {0: 1, 3: 1}, {1: 2, 0: -1}],
          {1: 1}))
def test_quotient_matches_elimination_of_the_raw_relators(case):
    field, ncols, relators, v = case
    one = field.one
    ref = echelonize(relators, field, ncols)
    q = QuotientSpace(ncols, field, relators)
    assert q.dim == ncols - ref.rank
    for r in relators:
        assert q.project_vec(r) == {}
    for w in (v, *({j: one} for j in range(ncols))):
        got = q.project_vec(w)
        assert (got == {}) == (ref.reduce(w) == {})
        assert not any(type(x) is Fraction and x.denominator == 1
                       for x in got.values())
    for k in range(q.dim):
        assert q.project_vec(q.section_vec(k)) == {k: one}
    ident = SparseMatrix.identity(ncols, field)
    assert q.induced_matrix(ident) == SparseMatrix.identity(q.dim, field)
    if 0 < ref.rank < ncols:
        # send a coordinate of a relator to a vector outside the relator span
        r = relators[0]
        outside = next({j: one} for j in range(ncols) if ref.reduce({j: one}))
        leave = SparseMatrix(ncols, ncols, field, {min(r): outside})
        with pytest.raises(WellDefinednessError):
            q.induced_matrix(leave)


@st.composite
def two_term_quotients(draw):
    """A field, an ambient dimension, relators with one or two entries, and
    a test vector with entries a/b."""
    field = draw(st.sampled_from([QQ, GF5]))
    ncols = draw(st.integers(1, 8))
    scalar = st.tuples(st.integers(-3, 3).filter(bool), st.integers(1, 3)).map(
        lambda ab: field.coerce(Fraction(*ab)))
    relators = [
        {j: draw(scalar) for j in cols}
        for cols in draw(st.lists(st.lists(st.integers(0, ncols - 1), min_size=1,
                                           max_size=2, unique=True), max_size=10))
    ]
    v = draw(st.dictionaries(st.integers(0, ncols - 1), scalar, max_size=ncols))
    return field, ncols, relators, v


@settings(max_examples=300, deadline=None)
@given(two_term_quotients())
# e0 = 2 e1: e1 projects to e0 / 2, so 2 e1 projects to Fraction(1) -> 1
@example((QQ, 2, [{0: 1, 1: -2}], {1: 2}))
def test_two_term_quotients_project_like_the_reduce_path(case):
    """With no relator of three or more entries the residual echelon is
    empty and ``project_vec`` skips ``Echelon.reduce``; it must return what
    contracting and then reducing returns, with integral values as int."""
    field, ncols, relators, v = case
    q = QuotientSpace(ncols, field, relators)
    assert not q._ech.rows
    contracted: dict = {}
    for j, x in v.items():
        root = q._parent[j]
        if root not in q._killed:
            vec_add_at(contracted, root, q._factor[j] * x)
    want = {q._free_index[j]: w for j, w in q._ech.reduce(contracted).items()}
    got = q.project_vec(v)
    assert got == want
    for x in got.values():
        assert type(x) is (int if field is QQ and x.denominator == 1
                           else Fraction if field is QQ else type(field.one))


@st.composite
def descent_cases(draw):
    """A quotient by relators with 1, 2 and 4 entries, an operator I + E
    (E maps into the relator span, so I + E descends) with optional noise
    columns that may break descent, and whether the target is the quotient
    itself or the relator-free space."""
    field = draw(st.sampled_from([QQ, GF5]))
    ncols = draw(st.integers(1, 6))
    scalar = st.tuples(st.integers(-3, 3).filter(bool), st.integers(1, 3)).map(
        lambda ab: field.coerce(Fraction(*ab)))
    sizes = [size for size in (1, 2, 4) if size <= ncols]
    relators = []
    for size in draw(st.lists(st.sampled_from(sizes), max_size=6)):
        cols = draw(st.lists(st.integers(0, ncols - 1), min_size=size,
                             max_size=size, unique=True))
        relators.append({j: draw(scalar) for j in cols})
    cols = {j: {j: field.one} for j in range(ncols)}
    for j in draw(st.lists(st.integers(0, ncols - 1), max_size=3)):
        for r in relators:
            vec_iadd_scaled(cols[j], r, field.from_int(draw(st.integers(-1, 1))))
    for j, noise in draw(st.dictionaries(st.integers(0, ncols - 1),
                                         st.dictionaries(st.integers(0, ncols - 1),
                                                         scalar, max_size=2),
                                         max_size=2)).items():
        vec_iadd_scaled(cols[j], noise, field.one)
    return field, ncols, relators, cols, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(descent_cases())
# e1 = e0 / 2, and op sends e0 and e1 both to e2: the images agree, but
# e1 - e0 / 2 maps to e2 / 2, which is not a relator
@example((QQ, 3, [{0: 1, 1: -2}], {0: {2: 1}, 1: {2: 1}, 2: {2: 1}}, False))
# e1 is killed, and op sends it to the live e0
@example((QQ, 2, [{1: 1}], {0: {0: 1}, 1: {0: 1}}, False))
# one residual row e0 + e1 + e2 + e3; op keeps e0 and kills the rest
@example((GF5, 4, [{0: GF5.one, 1: GF5.one, 2: GF5.one, 3: GF5.one}],
          {0: {0: GF5.one}}, False))
def test_induced_matrix_raises_exactly_when_a_relator_leaves_the_span(case):
    """``induced_matrix`` checks descent class by class; the reference
    projects op applied to every vector of ``_relator_basis``."""
    field, ncols, relators, cols, free_target = case
    q = QuotientSpace(ncols, field, relators)
    target = QuotientSpace(ncols, field, []) if free_target else q
    op = SparseMatrix(ncols, ncols, field, {j: c for j, c in cols.items() if c})
    leaves = any(target.project_vec(op.apply(r)) for r in q._relator_basis())
    if leaves:
        with pytest.raises(WellDefinednessError,
                           match="^operator does not preserve the relator span$"):
            target.induced_matrix(op, source=q)
        return
    m = target.induced_matrix(op, source=q)
    want = {k: target.project_vec(op.column(c)) for k, c in enumerate(q.free_cols)}
    assert m.cols == {k: v for k, v in want.items() if v}


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(-10, 10)),
             min_size=1, max_size=4, unique_by=lambda e: e[0]),
    max_size=8))))
# 5 coerces to zero over GF(5): {0: 5, 1: 1} kills e1
@example((2, [[(0, 5), (1, 1)]]))
@example((3, [[(0, 5), (1, 1)]]))
def test_gf5_quotient_of_int_relators_matches_the_coerced_one(case):
    """Over GF(5) an int entry of a relator is coerced, and one that is zero
    mod 5 drops, as if the caller had coerced it first."""
    ncols, entries = case
    ints = [dict(r) for r in entries]
    q = QuotientSpace(ncols, GF5, ints)
    ref = QuotientSpace(ncols, GF5, [{j: GF5.coerce(x) for j, x in r.items()}
                                     for r in ints])
    assert q.free_cols == ref.free_cols
    for j in range(ncols):
        assert q.project_vec({j: GF5.one}) == ref.project_vec({j: GF5.one})
    if ints == [{0: 5, 1: 1}]:  # kills e1 and leaves every other column free
        assert q.free_cols == [j for j in range(ncols) if j != 1]
        assert q.project_vec({1: GF5.one}) == {}


def full_scan_reduce(ech, v):
    """Reference reduce: visit every retired row in step order; the result
    in canonical form (coerce turns an integral Fraction into an int)."""
    v = dict(v)
    field = ech.field
    for pc, row in zip(ech.pivots, ech.rows):
        c = v.get(pc)
        if c:
            factor = -field.div(c, row[pc])
            for j, x in row.items():
                w = v.get(j, field.zero) + factor * x
                if w:
                    v[j] = w
                elif j in v:
                    del v[j]
    return {j: field.coerce(w) for j, w in v.items()}


@st.composite
def echelon_and_vector(draw):
    field = draw(st.sampled_from([QQ, GF5]))
    ncols = draw(st.integers(1, 10))
    entry = st.integers(-3, 3)
    rows = draw(st.lists(
        st.dictionaries(st.integers(0, ncols - 1), entry, max_size=ncols),
        max_size=8,
    ))
    rows = [{j: field.coerce(x) for j, x in r.items() if x} for r in rows]
    coeffs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
    noise = draw(st.dictionaries(
        st.integers(0, ncols - 1),
        st.tuples(entry, st.integers(1, 3)),
        max_size=3,
    ))
    v: dict = {}
    for c, r in zip(coeffs, rows):
        vec_iadd_scaled(v, r, field.from_int(c))
    noise_vec = {j: field.coerce(Fraction(a, b)) for j, (a, b) in noise.items()}
    vec_iadd_scaled(v, {j: x for j, x in noise_vec.items() if x}, field.one)
    return field, ncols, rows, v


@settings(max_examples=300, deadline=None)
@given(echelon_and_vector())
def test_reduce_matches_full_scan(case):
    field, ncols, rows, v = case
    ech = echelonize(rows, field, ncols)
    got = ech.reduce(v)
    want = full_scan_reduce(ech, v)
    assert list(got.items()) == list(want.items())
    assert [repr(x) for x in got.values()] == [repr(x) for x in want.values()]
    assert set(got) <= set(ech.free_cols())
    in_span = echelonize(rows + [v], field, ncols).rank == ech.rank
    assert (not got) == in_span


def dense_rank(rows, field, ncols):
    """Reference rank by dense Gauss-Jordan elimination, column by column."""
    zero = field.zero
    m = [[r.get(j, zero) for j in range(ncols)] for r in rows]
    rk = 0
    for j in range(ncols):
        piv = next((i for i in range(rk, len(m)) if m[i][j]), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        for i in range(len(m)):
            if i != rk and m[i][j]:
                f = field.div(m[i][j], m[rk][j])
                m[i] = [a - f * b for a, b in zip(m[i], m[rk])]
        rk += 1
    return rk


@st.composite
def sparse_systems(draw):
    """Up to 25 sparse rows on up to 30 columns with entries in -2..2, some
    of them combinations of earlier rows, so elimination both fills in and
    cancels; optionally a pivot limit."""
    field = draw(st.sampled_from([QQ, GF5]))
    ncols = draw(st.integers(1, 30))
    entry = st.integers(-2, 2).filter(bool)
    rows = draw(st.lists(
        st.dictionaries(st.integers(0, ncols - 1), entry, max_size=6),
        max_size=20,
    ))
    rows = [{j: field.coerce(x) for j, x in r.items()} for r in rows]
    for _ in range(draw(st.integers(0, 5)) if rows else 0):
        a, b = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
        v = vec_iadd_scaled(dict(rows[a]), rows[b], field.from_int(draw(entry)))
        rows.append(v)
    limit = draw(st.one_of(st.none(), st.integers(0, ncols)))
    return field, ncols, rows, limit


@settings(max_examples=200, deadline=None)
@given(sparse_systems())
def test_echelonize_matches_dense_elimination(case):
    field, ncols, rows, limit = case
    lim = ncols if limit is None else limit
    ech = echelonize(rows, field, ncols, pivot_limit=limit)
    left = [{j: x for j, x in r.items() if j < lim} for r in rows]
    assert ech.rank == dense_rank(left, field, lim)
    assert all(pc < lim for pc in ech.pivots)
    for t, row in enumerate(ech.rows):
        assert row[ech.pivots[t]]
        assert all(not row.get(pc) for pc in ech.pivots[:t])
    leftovers = ech._leftovers
    assert all(r and min(r) >= lim for r in leftovers)
    rank_left = dense_rank(leftovers, field, ncols)
    for r in rows:
        residual = ech.reduce(r)
        # without a limit every row reduces to zero; with one, what is left
        # lies past the limit, in the span of the leftover rows
        assert all(j >= lim for j in residual)
        assert dense_rank(leftovers + [residual], field, ncols) == rank_left


def test_subspace_membership_and_coords():
    s = Subspace(3, QQ, [{0: Fraction(1), 1: Fraction(1)}, {2: Fraction(2)}])
    assert s.dim == 2
    assert s.contains({0: Fraction(3), 1: Fraction(3), 2: Fraction(1)})
    assert not s.contains({0: Fraction(1)})
    c = s.coords({0: Fraction(2), 1: Fraction(2)})
    assert c is not None


@settings(max_examples=300, deadline=None)
@given(echelon_and_vector())
def test_subspace_coords_match_solve(case):
    field, ncols, rows, v = case
    s = Subspace(ncols, field, rows)
    got = s.coords(v)
    want = solve(s.basis_matrix(), v)
    if want is None:
        assert got is None
    else:
        assert sorted(got.items()) == sorted(want.items())
        assert sorted(map(repr, got.values())) == sorted(map(repr, want.values()))


def test_subspace_coords_eliminate_once(monkeypatch):
    from hopfcyclic import linalg

    s = Subspace(4, QQ, [{0: 1, 1: 2}, {1: 1, 3: -1}, {2: 3}])
    assert s.coords({0: 1, 1: 3, 3: -1}) is not None
    calls = []
    original = linalg.echelonize

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(linalg, "echelonize", counting)
    for v in ({0: 2, 1: 4}, {2: 1}, {3: 1}, {}):
        s.coords(v)
    assert s.coords({3: 1}) is None
    assert calls == []


def test_subspace_induced_matrix():
    # span(e0, e1 + e2) in k^3: the swap of e1 and e2 preserves it, the map
    # e0 -> e1 does not
    s = Subspace(3, QQ, [{0: 1}, {1: 1, 2: 1}])
    swap = SparseMatrix.permutation([0, 2, 1], QQ)
    assert s.induced_matrix(swap, "swap leaves the span") == SparseMatrix.identity(2, QQ)
    shift = SparseMatrix(3, 3, QQ, {0: {1: 1}})
    with pytest.raises(WellDefinednessError, match="shift leaves the span") as err:
        s.induced_matrix(shift, "shift leaves the span")
    assert isinstance(err.value, LinAlgError)


# -- complexes ---------------------------------------------------------------


def _two_term_complex():
    # 0 <- k <- k^2, boundary (1, 0): H_0 = 0? no: rank 1 => H_0 = 1-1 = 0, H_1 needs deg 2
    d1 = dense([[1, 0]])
    return ChainComplex([1, 2], [d1], QQ)


def test_homology_dims_and_truncation():
    c = _two_term_complex()
    assert homology_dims(c, 0, 0) == [0]
    with pytest.raises(TruncationError):
        homology_dims(c, 0, 1)


def test_boundary_square_varified():
    d1 = dense([[1]])
    d2 = dense([[1]])
    with pytest.raises(LinAlgError):
        ChainComplex([1, 1, 1], [d1, d2], QQ)


def test_total_complex_of_anticommuting_square():
    # square of copies of k with identity maps and one sign flip; padded by
    # zero cells so the truncation through total degree 1 is complete
    one = dense([[1]])
    cells = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1, (2, 0): 0, (0, 2): 0}
    horiz = {(1, 0): one, (1, 1): one}
    vert = {(0, 1): one, (1, 1): one.scale(Fraction(-1))}
    b = Bicomplex(cells, horiz, vert, QQ)
    tot = total_complex(b, 1)
    assert tot.dims == [1, 2, 1]
    assert homology_dims(tot, 0, 1) == [0, 0]
    with pytest.raises(TruncationError):
        total_complex(b, 2)


def _total_complex_from_entries(b: Bicomplex, top: int) -> tuple:
    """(dims, diffs) of the total complex through degree top + 1, every
    block entry gathered and passed to SparseMatrix.from_entries: the
    assembly that total_complex writes straight into columns."""
    layouts, dims = [], []
    for n in range(top + 2):
        offs, o = {}, 0
        for cell in sorted(c for c in b.cells if sum(c) == n):
            offs[cell], o = o, o + b.cells[cell]
        layouts.append(offs)
        dims.append(o)
    diffs = []
    for n in range(1, top + 2):
        tgt, entries = layouts[n - 1], []
        for (p, q), off in layouts[n].items():
            for mp, cell_t in ((b.vert.get((p, q)), (p, q - 1)), (b.horiz.get((p, q)), (p - 1, q))):
                if mp is not None and cell_t in tgt:
                    entries += [(tgt[cell_t] + i, off + j, v)
                                for j, col in mp.cols.items() for i, v in col.items()]
        diffs.append(SparseMatrix.from_entries(dims[n - 1], dims[n], b.field, entries))
    return dims, diffs


@pytest.mark.parametrize("name", ["ks3", "h4"])
def test_total_complex_matches_the_from_entries_assembly(name):
    """The (b, B) and staircase total complexes of (kS3, ad) and (H4, ad)
    over Q are the from_entries assembly, column and entry order and the
    scalar types (int, or Fraction only off the integers) included."""
    h = sweedler_h4() if name == "h4" else group_algebra(FiniteGroup.symmetric(3))
    z = cyclic.build_cyclic(h, adjoint(h), 4)

    def entries(m):
        return [(j, [(i, type(v), v) for i, v in col.items()]) for j, col in m.cols.items()]

    for b in (cyclic.mixed_bicomplex(z, 3), cyclic.tsygan_bicomplex(z, 3)):
        tot = total_complex(b, 3)
        dims, diffs = _total_complex_from_entries(b, 3)
        assert tot.dims == dims
        for n, want in enumerate(diffs, start=1):
            got = tot.diff(n)
            assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
            assert entries(got) == entries(want)


def test_bicomplex_rejects_commuting_square():
    one = dense([[1]])
    cells = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    horiz = {(1, 0): one, (1, 1): one}
    vert = {(0, 1): one, (1, 1): one}
    with pytest.raises(LinAlgError):
        Bicomplex(cells, horiz, vert, QQ)


@st.composite
def random_complexes(draw):
    """A random integer d_1, then each d_{n+1} a kernel basis of d_n times a
    random integer matrix, so that d o d = 0 and the complex is accepted."""
    field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(3), GF5]))
    entry = st.integers(-2, 2)
    dims = [draw(st.integers(1, 6)), draw(st.integers(1, 8))]
    diffs = [SparseMatrix.from_rows_dense(
        [[draw(entry) for _ in range(dims[1])] for _ in range(dims[0])], field)]
    for _ in range(draw(st.integers(1, 3))):
        _, kernel = rank_kernel(diffs[-1])
        dims.append(draw(st.integers(1, 8)))
        cols = []
        for _ in range(dims[-1]):
            col: dict = {}
            for v in kernel:
                vec_iadd_scaled(col, v, field.from_int(draw(entry)))
            cols.append(col)
        diffs.append(SparseMatrix.from_columns(dims[-2], field, cols))
    return ChainComplex(dims, diffs, field), draw(st.integers(0, len(diffs) - 1))


@settings(max_examples=150, deadline=None)
@given(random_complexes())
def test_compressed_ranks_match_the_plain_ranks(case):
    c, low = case
    plain = [0] + [rank(c.diff(n)) for n in range(1, c.top_degree + 1)] + [0]
    top = c.top_degree - 1
    assert homology_dims(c, low, top) == [
        c.dims[n] - plain[n] - plain[n + 1] for n in range(low, top + 1)]
    assert [c.boundary_rank(n) for n in range(1, c.top_degree + 1)] == plain[1:-1]


@pytest.mark.parametrize("name", ["ks3", "h4"])
@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["q", "f3"])
def test_compressed_ranks_of_the_builtin_complexes(name, field):
    """The unnormalized, normalized and bar complexes of (kS3, ad) and
    (H4, ad) through degree 3, and over Q also the lambda, (b, B)-total and
    staircase-total ones: every compressed rank is the plain one."""
    h = sweedler_h4(field) if name == "h4" else group_algebra(FiniteGroup.symmetric(3), field)
    m = adjoint(h)
    z = cyclic.build_cyclic(h, m, 3)
    norm, b = cyclic._normalized(z, 3)
    complexes = [z.chain_complex(3), ChainComplex([q.dim for q in norm], b, field),
                 cyclic.bar_complex(h, m.dim, m.action, 3)]
    if not field.characteristic:
        complexes += [cyclic.connes_data(z, 3)[1],
                      total_complex(cyclic.mixed_bicomplex(z, 2), 2),
                      total_complex(cyclic.tsygan_bicomplex(z, 2), 2)]
    for c in complexes:
        ranks = [c.boundary_rank(n) for n in range(1, c.top_degree + 1)]
        assert ranks == [rank(c.diff(n)) for n in range(1, c.top_degree + 1)]


def test_quasi_iso_identity_map():
    c = _two_term_complex()
    f = {0: SparseMatrix.identity(1, QQ), 1: SparseMatrix.identity(2, QQ)}
    rep = quasi_iso_check(f, c, c, 0, 0)
    assert rep.ok and rep.degrees[0].iso


def test_quasi_iso_detects_non_iso():
    # C: 0 <- k (only degree 0); D: same; zero map should fail at H_0 when H_0 != 0
    c = ChainComplex([1, 1], [SparseMatrix.zero(1, 1, QQ)], QQ)
    f = {0: SparseMatrix.zero(1, 1, QQ), 1: SparseMatrix.zero(1, 1, QQ)}
    rep = quasi_iso_check(f, c, c, 0, 0)
    assert not rep.ok


def test_solve_matrix_multiple_rhs():
    m = dense([[1, 1], [0, 1]])
    rhs = dense([[1, 0], [0, 1]])
    x = solve_matrix(m, rhs)
    assert m @ x == rhs
