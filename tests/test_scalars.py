"""Scalar representation: over Q every scalar is an int when integral and a
Fraction only when its denominator is not 1, and no float ever reaches a
vector or a matrix (``int / int`` would make one, so every division goes
through ``field.div``)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcyclic.crossed import adjoint
from hopfcyclic.cyclic import build_cyclic, connes_data
from hopfcyclic.galois import relative_cyclic
from hopfcyclic.hopf import FiniteGroup, group_algebra
from hopfcyclic.linalg import (
    QQ,
    PrimeField,
    ScalarError,
    SparseMatrix,
    echelonize,
    flip_matrix,
    rank_kernel,
    solve,
    solve_matrix,
)

GF5 = PrimeField(5)


def canonical(x) -> bool:
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def assert_exact_vec(v):
    bad = {j: x for j, x in v.items() if not canonical(x)}
    assert not bad, f"non-canonical scalars {bad!r}"


def assert_exact_matrix(m: SparseMatrix):
    for col in m.cols.values():
        assert_exact_vec(col)


# -- no float reaches a vector or a matrix ---------------------------------


def test_hc_s3_adjoint_boundaries_and_operators_hold_exact_scalars():
    h = group_algebra(FiniteGroup.symmetric(3), QQ)
    z = build_cyclic(h, adjoint(h), 3)
    for n in range(4):
        assert_exact_matrix(z.cyclic(n))
        for i in range(n + 1):
            assert_exact_matrix(z.degen(n, i))
            if n:
                assert_exact_matrix(z.face(n, i))
        if n:
            assert_exact_matrix(z.boundary(n))
    quotients, cx = connes_data(z, 3)
    for n in range(1, 4):
        assert_exact_matrix(cx.diff(n))
        assert_exact_matrix(quotients[n].projection_matrix())


def test_s3_over_a3_carrier_projection_and_induced_matrix(s3_galois):
    z = relative_cyclic(s3_galois.ca, s3_galois.base, max_degree=2)
    q = z.carrier(1)
    assert 0 < q.dim < q.ambient_dim
    for j in range(q.ambient_dim):
        assert_exact_vec(q.project_vec({j: QQ.one}))
        assert_exact_vec(q.project_vec({j: Fraction(1, 2)}))
    # on A (x)_B A with the outer legs identified, the flip descends
    d = s3_galois.ca.dim
    flip = q.induced_matrix(flip_matrix(d, d, QQ), what="cyclic flip")
    assert_exact_matrix(flip)
    assert flip @ flip == SparseMatrix.identity(q.dim, QQ)


def test_solve_and_kernel_basis_divide_exactly():
    a = SparseMatrix.from_rows_dense([[2, 1], [0, 3]], QQ)
    x = solve(a, {0: 1, 1: 1})
    assert x == {0: Fraction(1, 3), 1: Fraction(1, 3)}
    assert_exact_vec(x)
    x = solve(a, {0: 3, 1: 3})
    assert x == {0: 1, 1: 1} and all(type(v) is int for v in x.values())
    _, kernel = rank_kernel(SparseMatrix.from_rows_dense([[2, 3]], QQ))
    assert kernel == [{0: 3, 1: -2}]
    assert_exact_vec(kernel[0])
    _, kernel = rank_kernel(SparseMatrix.from_rows_dense([[2, 3]], GF5))
    assert kernel == [{0: 1, 1: GF5.coerce("-2/3")}]


# -- canonical form, property-tested ---------------------------------------

small_q = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def test_coerce_canonical_form():
    assert type(QQ.coerce("4/2")) is int and QQ.coerce("4/2") == 2
    assert QQ.coerce(Fraction(3, 1)) == 3 and type(QQ.coerce(Fraction(3, 1))) is int
    assert QQ.coerce("-2/6") == Fraction(-1, 3)
    assert QQ.zero == 0 and QQ.one == 1 and type(QQ.from_int(7)) is int


@pytest.mark.parametrize("field, literal", [
    (QQ, "abc"), (QQ, "1/0"), (QQ, 0.5), (QQ, None), (QQ, True),
    (GF5, "1/5"), (GF5, Fraction(2, 15)), (GF5, "x"),
])
def test_coerce_rejects_bad_literals(field, literal):
    with pytest.raises(ScalarError):
        field.coerce(literal)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(-50, 50), small_q, small_q.map(str)),
       st.one_of(st.integers(-50, 50), small_q))
def test_coerce_and_div_are_canonical(a, b):
    x = QQ.coerce(a)
    assert canonical(x) and x == Fraction(a)
    if b:
        q = QQ.div(x, QQ.coerce(b))
        assert canonical(q) and q == Fraction(a) / b


@st.composite
def rational_system(draw):
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 5))
    cell = st.one_of(st.just(0), st.integers(-3, 3), small_q)
    rows = [[QQ.coerce(draw(cell)) for _ in range(ncols)] for _ in range(nrows)]
    rhs = [[QQ.coerce(draw(cell))] for _ in range(nrows)]
    v = {j: x for j in range(ncols) if (x := QQ.coerce(draw(cell)))}
    return rows, rhs, v


@settings(max_examples=200, deadline=None)
@given(rational_system())
def test_elimination_results_are_canonical(case):
    rows, rhs, v = case
    a = SparseMatrix.from_rows_dense(rows, QQ)
    b = SparseMatrix.from_rows_dense(rhs, QQ)
    ech = echelonize(a.rows().values(), QQ, a.ncols)
    assert_exact_vec(ech.reduce(v))
    for k in ech.kernel_basis():
        assert_exact_vec(k)
        assert not a.apply(k)
    x = solve_matrix(a, b)
    if x is not None:
        assert_exact_matrix(x)
        assert a @ x == b
