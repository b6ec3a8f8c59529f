"""Failing reports, pinned: the exact (name, passed, witness) of every failed
check for one broken input per verifier.  Passing reports carry no witness,
so these are the only tests that fix the witness strings and the order in
which each search meets its first failure."""

import pytest

from hopfcyclic.crossed import CrossedModule, adjoint, one_dimensional, verify_crossed, verify_modular
from hopfcyclic.cyclic import (
    build_cyclic,
    sbi_check,
    verify_cyclic_identities,
)
from hopfcyclic.galois import (
    _check_commutation,
    comodule_from_hopf,
    galois_check,
    lambda_iso,
    regular_bimodule,
    verify_algebra,
    verify_bimodule,
)
from hopfcyclic.hopf import AlgebraData, FiniteGroup, HopfAlgebra, group_algebra, hopf_to_json, sweedler_h4, verify_hopf
from hopfcyclic.linalg import QQ, SparseMatrix, vec_add_at
from hopfcyclic.reporting import CheckReport
from percolumn import per_column


def failing(rep):
    return [(c.name, c.passed, c.witness) for c in rep.failures]


def bump(vec, at=0):
    """vec plus the basis vector `at`."""
    out = dict(vec)
    vec_add_at(out, at, QQ.one)
    return out


@pytest.fixture(scope="module")
def kz3_adjoint():
    kz3 = group_algebra(FiniteGroup.cyclic(3), QQ)
    return build_cyclic(kz3, adjoint(kz3), 3)


def perturbed(z, kind, n, i, col):
    """z with one column of one face, degeneracy or cyclic operator bumped."""
    face, degen, cyc = z.face_fn, z.degen_fn, z.cyclic_fn
    if kind == "face":
        def face(m, j, c, _f=face):
            return bump(_f(m, j, c)) if (m, j, c) == (n, i, col) else _f(m, j, c)
    elif kind == "degen":
        def degen(m, j, c, _s=degen):
            return bump(_s(m, j, c)) if (m, j, c) == (n, i, col) else _s(m, j, c)
    else:
        def cyc(m, c, _t=cyc):
            return bump(_t(m, c)) if (m, c) == (n, col) else _t(m, c)
    return per_column(QQ, z.top, z.dim_fn, face, degen, cyc, name="bad")


# (evaluator, degree, index, column bumped, failing checks); between them
# the cases make each of the six identity families fail
_CYCLIC_CASES = [
    ("face", 2, 1, 4, [
        ("face-face at degree 2", False, "(i=0, j=1, column 4)"),
        ("face-degeneracy at degree 2", False, "(i=2, j=0, column 4)"),
        ("cyclic-face at degree 2", False, "(i=2, column 4)"),
    ]),
    ("face", 1, 0, 7, [
        ("face-face at degree 2", False, "(i=0, j=2, column 4)"),
        ("face-degeneracy at degree 1", False, "(i=0, j=1, column 7)"),
        ("cyclic-face at degree 1", False, "(i=0, column 7)"),
    ]),
    ("degen", 1, 0, 3, [
        ("degeneracy-degeneracy at degree 1", False, "(i=0, j=1, column 3)"),
        ("face-degeneracy at degree 1", False, "(i=0, j=0, column 3)"),
        ("face-degeneracy at degree 2", False, "(i=0, j=1, column 3)"),
        ("cyclic-degeneracy at degree 1", False, "(i=1, column 3)"),
    ]),
    ("degen", 0, 0, 2, [
        ("face-degeneracy at degree 0", False, "(i=0, j=0, column 2)"),
        ("face-degeneracy at degree 1", False, "(i=2, j=0, column 2)"),
    ]),
    ("cyclic", 1, None, 2, [
        ("cyclic-face at degree 1", False, "(i=0, column 2)"),
        ("cyclic-face at degree 2", False, "(i=1, column 2)"),
        ("cyclic-degeneracy at degree 0", False, "(i=0, column 2)"),
        ("cyclic-degeneracy at degree 1", False, "(i=0, column 2)"),
        ("cyclic operator order at degree 1", False, "column 2"),
    ]),
    ("cyclic", 2, None, 10, [
        ("cyclic-face at degree 2", False, "(i=0, column 10)"),
        ("cyclic-degeneracy at degree 1", False, "(i=0, column 1)"),
        ("cyclic-degeneracy at degree 2", False, "(i=0, column 10)"),
        ("cyclic operator order at degree 2", False, "column 1"),
    ]),
]


@pytest.mark.parametrize("kind, n, i, col, expected", _CYCLIC_CASES)
def test_corrupted_cyclic_object_failures(kz3_adjoint, kind, n, i, col, expected):
    z = perturbed(kz3_adjoint, kind, n, i, col)
    assert failing(verify_cyclic_identities(z, 2)) == expected


def test_mutated_antipode_failures():
    h = group_algebra(FiniteGroup.cyclic(2))
    doc = hopf_to_json(h)
    doc["antipode"][1][1] = 0
    antipode = SparseMatrix.from_entries(2, 2, QQ, doc["antipode"])
    bad = HopfAlgebra(QQ, h.basis, h.mult, h.unit, h.comult, h.counit, antipode, "H")
    assert failing(verify_hopf(bad)) == [
        ("left antipode identity", False, "(1)"),
        ("right antipode identity", False, "(1)"),
    ]


def test_primitive_x_in_h4_failures():
    """H4 with comult(x) = x (x) 1 + 1 (x) x: x is then primitive but g is
    grouplike and xg = -gx, so the comultiplication is not multiplicative."""
    h = sweedler_h4()
    cols = {j: dict(c) for j, c in h.comult.cols.items()}
    cols[2] = {2 * 4 + 0: QQ.one, 0 * 4 + 2: QQ.one}
    comult = SparseMatrix(16, 4, QQ, cols)
    bad = HopfAlgebra(QQ, h.basis, h.mult, h.unit, comult, h.counit, h.antipode, "H")
    assert failing(verify_hopf(bad)) == [
        ("comultiplication is multiplicative", False, "(g,x)"),
        ("left antipode identity", False, "(x)"),
        ("right antipode identity", False, "(x)"),
    ]


def test_non_associative_algebra_failures():
    # e0 is the unit; x x = y, y x = e0, x y = y y = 0
    entries = [(k, 3 * i + j, 1) for i, j, k in [
        (0, 0, 0), (0, 1, 1), (0, 2, 2), (1, 0, 1), (2, 0, 2), (1, 1, 2), (2, 1, 0)]]
    a = AlgebraData(QQ, ["1", "x", "y"], SparseMatrix.from_entries(3, 9, QQ, entries),
                    {0: 1}, name="N")
    assert failing(verify_algebra(a)) == [
        ("multiplication is associative", False, "(x, x, x)"),
    ]


def test_mutated_action_failures():
    h = group_algebra(FiniteGroup.cyclic(2))
    m = adjoint(h)
    action = SparseMatrix(m.action.nrows, m.action.ncols, QQ,
                          {j: dict(col) for j, col in m.action.cols.items()})
    last = max(action.cols)
    row = max(action.cols[last])
    action.cols[last][row] = QQ.coerce("7")
    bad = CrossedModule(h, m.dim, action, m.coaction, m.basis, name="bad")
    # g . (g . g) meets the bumped entry; (gg) . g does not
    assert failing(verify_crossed(bad)) == [("action associativity", False, "(g,g,g)")]


def test_collapsing_right_action_failures():
    # u_j . e_i = u0: still associative, but g (u0 . 1) = u1 while
    # (g u0) . 1 = u0, and u1 . 1 = u0
    m = regular_bimodule(group_algebra(FiniteGroup.cyclic(2)))
    m.right = SparseMatrix(2, 4, QQ, {k: {0: QQ.one} for k in range(4)})
    assert failing(verify_bimodule(m)) == [
        ("left and right actions commute", False, "(g,u0,1)"),
        ("unit acts as identity on the right", False, "(u1)"),
    ]


def test_mutated_comparison_failures():
    # kZ2 over the scalars: the degree-1 comparison is a permutation of
    # (m, a) tuples; send source column 2 = (g, 1) to target 0 instead of 1
    kz2 = group_algebra(FiniteGroup.cyclic(2), QQ)
    comp = lambda_iso(galois_check(comodule_from_hopf(kz2)), max_degree=1)
    assert comp.matrices[1].cols[2] == {1: QQ.one}
    mats = dict(comp.matrices)
    cols = {j: dict(col) for j, col in mats[1].cols.items()}
    cols[2] = {0: QQ.one}
    mats[1] = SparseMatrix(mats[1].nrows, mats[1].ncols, QQ, cols)
    rep = CheckReport("mutated comparison")
    _check_commutation(rep, comp.relative, comp.hopf_side, mats, 1, cyclic=True)
    # s_0 and t_1 reach (g, 1) from source column 1 = (g) and (1, g)
    assert failing(rep) == [
        ("face 0 commutes at degree 1", False, "degree 1, face 0, column 2"),
        ("face 1 commutes at degree 1", False, "degree 1, face 1, column 2"),
        ("degeneracy 0 commutes at degree 0", False, "degree 0, degeneracy 0, column 1"),
        ("cyclic operator commutes at degree 1", False, "degree 1, column 1"),
    ]


def test_ungraded_swap_action_failures():
    # the generator swaps m0 and m1, but each spans its own degree of Z/2
    h = group_algebra(FiniteGroup.cyclic(2))
    action = SparseMatrix.from_entries(2, 4, QQ, [(0, 0, 1), (1, 1, 1), (1, 2, 1), (0, 3, 1)])
    coaction = SparseMatrix.from_entries(4, 2, QQ, [(0, 0, 1), (3, 1, 1)])
    bad = CrossedModule(h, 2, action, coaction, name="swap")
    assert failing(verify_crossed(bad)) == [("crossed compatibility", False, "h=g, m=m0")]


def test_grouplike_sign_module_is_not_modular():
    kz2 = group_algebra(FiniteGroup.cyclic(2), QQ)
    sgn = one_dimensional(kz2, {0: 1, 1: -1}, coaction_grouplike=1, name="k_sign")
    assert failing(verify_modular(sgn)) == [
        ("modularity (u = id)", False, "u(m) != m"),
    ]


@pytest.mark.parametrize("hh, hc, expected", [
    ([1, 1], [1], [("matching degree ranges", False, "2 vs 1 entries")]),
    ([1, 0, 0], [0, 0, 0], [("rank intervals consistent along the sequence", False,
                             "no feasible rank at node HH_0 (position 7)")]),
    ([1, 0, 0, 0], [1, 0, 5, 0], [("rank intervals consistent along the sequence", False,
                                   "no feasible rank at node HC_2 (position 5)")]),
    ([2, 2, 2], [2, 0, 1], [("rank intervals consistent along the sequence", False,
                             "no feasible rank at node HH_2 (position 1)")]),
])
def test_infeasible_dimension_failures(hh, hc, expected):
    assert failing(sbi_check(hh, hc)) == expected
