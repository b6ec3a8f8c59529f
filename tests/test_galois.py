"""Hopf-Galois extensions: the Galois and translation maps, relative cyclic
objects, the slot-product comparison, base change, and graded folding."""

import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from hopfcyclic.cli import resolve_extension
from hopfcyclic.crossed import adjoint
from hopfcyclic import galois, linalg
from hopfcyclic.cyclic import build_cyclic, connes_data, hc_connes, hochschild, verify_cyclic_identities
from hopfcyclic.galois import (
    AlgebraData,
    ComoduleAlgebra,
    _pair_product,
    ab_crossed_module,
    base_from_vectors,
    burghelea_graded,
    coinvariants,
    comodule_from_hopf,
    crossed_product,
    galois_check,
    lambda_iso,
    regular_bimodule,
    relative_cyclic,
    separable_base_change,
    strongly_graded,
    twisted_group_algebra,
    um_actions,
    unit_base,
    verify_algebra,
    verify_bimodule,
    verify_comodule_algebra,
)
from hopfcyclic.hopf import FiniteGroup, group_algebra, slot_map
from hopfcyclic.linalg import QQ, PrimeField, QuotientSpace, SparseMatrix, WellDefinednessError, canonical_vec, homology_dims


@pytest.fixture(scope="module")
def kz2():
    return group_algebra(FiniteGroup.cyclic(2), QQ)


@pytest.fixture(scope="module")
def kz3():
    return group_algebra(FiniteGroup.cyclic(3), QQ)


@pytest.fixture(scope="module")
def kz4():
    return group_algebra(FiniteGroup.cyclic(4), QQ)


def trivial_coaction_comodule(h, name):
    one = h.field.one
    co = SparseMatrix(
        h.dim * h.dim, h.dim, h.field,
        {j: {j * h.dim + u: c for u, c in h.unit.items()} for j in range(h.dim)},
    )
    return ComoduleAlgebra(h, h.basis, h.mult, h.unit, co, name=name)


# ---------------------------------------------------------------------------
# algebras, comodule algebras, bimodules
# ---------------------------------------------------------------------------


def test_verify_algebra_accepts_group_algebra(kz3):
    assert verify_algebra(kz3).ok


def test_verify_algebra_reports_witness_triple():
    # x*x = e while x*e = 0: associativity fails on (x, x, e)
    mult = SparseMatrix(2, 4, QQ, {0: {0: QQ.one}, 3: {0: QQ.one}})
    a = AlgebraData(QQ, ("e", "x"), mult, {0: QQ.one}, name="bad")
    rep = verify_algebra(a)
    assert not rep.ok
    failed = {r.name for r in rep.failures}
    assert failed  # at least associativity or a unit law pinpointed


def test_comodule_from_hopf_certifies_axioms(kz3):
    ca = comodule_from_hopf(kz3)
    assert verify_comodule_algebra(ca).ok
    assert ca.coact_pairs(1) == [((1, 1), QQ.one)]


def test_trivial_coaction_is_a_comodule_algebra(kz2):
    assert verify_comodule_algebra(trivial_coaction_comodule(kz2, "t")).ok


def test_regular_bimodule_axioms(kz3):
    assert verify_bimodule(regular_bimodule(kz3)).ok


def test_broken_bimodule_is_detected(kz2):
    m = regular_bimodule(kz2)
    m.right = SparseMatrix(2, 4, QQ, {k: {0: QQ.one} for k in range(4)})
    assert not verify_bimodule(m).ok


_KS3 = group_algebra(FiniteGroup.symmetric(3))
_SPARSE = st.dictionaries(st.integers(0, 5), st.integers(-3, 3).filter(bool), max_size=4)


def _kron(u, v, inner):
    return {i * inner + j: a * b for i, a in u.items() for j, b in v.items()}


@given(u=_SPARSE, v=_SPARSE)
@settings(max_examples=40, deadline=None)
def test_products_apply_the_structure_tensor_to_the_kronecker_vector(u, v):
    # kS3 is not commutative, so a kernel that swaps its arguments fails
    m, bim = adjoint(_KS3), regular_bimodule(_KS3)
    assert _KS3.product_vec(u, v) == _KS3.mult.apply(_kron(u, v, _KS3.dim))
    assert m.act_vec(u, v) == m.action.apply(_kron(u, v, m.dim))
    assert bim.left_vec(u, v) == bim.left.apply(_kron(u, v, bim.dim))
    assert bim.right_vec(u, v) == bim.right.apply(_kron(u, v, _KS3.dim))


# ---------------------------------------------------------------------------
# strong gradings and crossed products
# ---------------------------------------------------------------------------


def test_parity_grading_of_s3(s3_graded, s3_group):
    assert s3_graded.dim == 6
    assert len(s3_graded.grading[0]) == 3 and len(s3_graded.grading[1]) == 3
    assert all(
        s3_graded.degree_of[i] == (1 if s3_group.element_order(i) == 2 else 0)
        for i in range(6)
    )


def test_non_strong_grading_is_rejected():
    # upper-triangular 2x2 matrices: the off-diagonal square is zero
    mult = SparseMatrix(
        3, 9, QQ,
        {0: {0: QQ.one}, 2: {2: QQ.one}, 4: {1: QQ.one}, 7: {2: QQ.one}},
    )
    ut = AlgebraData(QQ, ("e11", "e22", "e12"), mult, {0: QQ.one, 1: QQ.one})
    with pytest.raises(ValueError, match="not strong"):
        strongly_graded(FiniteGroup.cyclic(2), ut, {0: [0, 1], 1: [2]})


def test_grading_must_cover_and_respect_degrees(kz2):
    alg = kz2
    z2 = FiniteGroup.cyclic(2)
    with pytest.raises(ValueError, match="cover"):
        strongly_graded(z2, alg, {0: [0], 1: []})
    with pytest.raises(ValueError, match="unit"):
        strongly_graded(z2, alg, {0: [1], 1: [0]})


def test_group_algebra_is_strongly_graded_by_its_group(kz4):
    alg = kz4
    z4 = FiniteGroup.cyclic(4)
    ca = strongly_graded(z4, alg, {x: [x] for x in range(4)})
    assert coinvariants(ca).dim == 1


def test_crossed_product_with_sign_action(kz2):
    sign = SparseMatrix(2, 2, QQ, {0: {0: QQ.one}, 1: {1: -QQ.one}})
    cp = crossed_product(
        kz2,
        FiniteGroup.cyclic(2),
        action={0: SparseMatrix.identity(2, QQ), 1: sign},
    )
    assert cp.dim == 4
    g = galois_check(cp)
    assert g.base.dim == 2


def test_trivial_crossed_product_is_the_group_algebra(kz2):
    cp = crossed_product(kz2, FiniteGroup.cyclic(2))
    v4 = group_algebra(
        FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)), QQ
    )
    # same structure constants after matching the basis order (i, x) <-> (x, i)
    perm = {x * 2 + i: i * 2 + x for x in range(2) for i in range(2)}
    for p in range(4):
        for q in range(4):
            got = {perm[k]: c for k, c in cp.mult.cols.get(p * 4 + q, {}).items()}
            want = dict(v4.mult.cols.get(perm[p] * 4 + perm[q], {}))
            assert got == want


def test_twisted_klein_is_galois_over_the_scalars(klein_twisted):
    g = galois_check(klein_twisted)
    assert g.base.dim == 1
    assert g.balanced.dim == 16


def test_non_cocycle_twist_is_rejected():
    z3 = FiniteGroup.cyclic(3)
    bad = {(x, y): QQ.one for x in range(3) for y in range(3)}
    bad[(2, 1)] = QQ.coerce(2)
    with pytest.raises(ValueError, match="associative"):
        twisted_group_algebra(z3, bad)


# ---------------------------------------------------------------------------
# coinvariants, the Galois map, the translation map
# ---------------------------------------------------------------------------


def test_coinvariants_of_comultiplication_are_scalars(kz3):
    base = coinvariants(comodule_from_hopf(kz3))
    assert base.dim == 1
    assert base.space.contains(dict(kz3.unit))


def test_coinvariants_of_parity_grading_are_the_even_span(s3_graded):
    base = coinvariants(s3_graded)
    assert base.dim == 3
    for i in s3_graded.grading[0]:
        assert base.space.contains({i: QQ.one})


def test_translation_map_of_group_algebra_is_inverse_tensor_element(kz4):
    g = galois_check(comodule_from_hopf(kz4))
    z4 = FiniteGroup.cyclic(4)
    for t in range(4):
        assert g.kappa_pairs(t) == [((z4.inv(t), t), QQ.one)]


def test_s3_extension_certificate(s3_galois):
    assert s3_galois.base.dim == 3
    assert s3_galois.balanced.dim == 12  # = dim A * dim H
    assert s3_galois.report.ok


def test_trivial_coaction_is_not_galois(kz2):
    ca = trivial_coaction_comodule(kz2, "kZ2triv")
    with pytest.raises(ValueError, match="defect"):
        galois_check(ca)


def test_galois_map_must_kill_the_balancing_relators(kz2):
    # rho(x^j) = x^j (x) g^j on kZ4 except rho(x^3) = x (x) g: the
    # coinvariants are still 1 and x^2, but the coaction is not
    # multiplicative, so beta(x^3 (x) x - x (x) x^3) = (1 - x^2) (x) g
    kz4 = group_algebra(FiniteGroup.cyclic(4), QQ)
    co = SparseMatrix(8, 4, QQ, {0: {0: 1}, 1: {3: 1}, 2: {4: 1}, 3: {3: 1}})
    ca = ComoduleAlgebra(kz2, kz4.basis, kz4.mult, kz4.unit, co, name="bad")
    assert not verify_comodule_algebra(ca).ok
    with pytest.raises(WellDefinednessError,
                       match="^the Galois map does not preserve the relator span$"):
        galois_check(ca)


@settings(deadline=None, max_examples=20)
@given(data=st.data())
def test_balanced_pair_product_is_associative(data):
    h = group_algebra(FiniteGroup.cyclic(3), QQ)
    ca = comodule_from_hopf(h)
    dim = ca.dim * ca.dim
    pick = st.dictionaries(
        st.integers(0, dim - 1), st.integers(-3, 3).map(QQ.coerce), max_size=4
    )
    u, v, w = (data.draw(pick) for _ in range(3))
    lhs = _pair_product(ca, _pair_product(ca, u, v), w)
    rhs = _pair_product(ca, u, _pair_product(ca, v, w))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# transported actions and the commutator-quotient crossed module
# ---------------------------------------------------------------------------


def test_um_actions_dimensions_for_s3(s3_galois, s3_graded):
    um = um_actions(s3_galois, regular_bimodule(s3_graded))
    assert um.invariants.dim == 4
    assert um.quotient.dim == 4
    assert um.report.ok


def test_um_actions_checks_equivariance_of_morphisms(s3_galois, s3_graded):
    ident = SparseMatrix.identity(6, QQ)
    um = um_actions(s3_galois, regular_bimodule(s3_graded), morphisms=[ident])
    assert um.report.ok


def test_ab_crossed_module_over_scalars_is_the_conjugation_module(kz3):
    g = galois_check(comodule_from_hopf(kz3))
    mbar = ab_crossed_module(g)
    adm = adjoint(kz3)
    assert mbar.action == adm.action and mbar.coaction == adm.coaction


def test_ab_crossed_module_of_s3_extension(s3_galois):
    mbar = ab_crossed_module(s3_galois)
    assert mbar.dim == 4


# ---------------------------------------------------------------------------
# relative cyclic objects
# ---------------------------------------------------------------------------


def test_relative_object_over_scalars_is_free(kz3):
    ca = comodule_from_hopf(kz3)
    z = relative_cyclic(ca, unit_base(ca), max_degree=3)
    assert [z.dim(n) for n in range(4)] == [3, 9, 27, 81]
    assert not z.simplicial_only


def test_relative_object_cyclic_operator_rotates(kz2):
    ca = comodule_from_hopf(kz2)
    z = relative_cyclic(ca, unit_base(ca), max_degree=2)
    t2 = z.cyclic(2)
    # degree-2 carrier is free on (m, a1, a2); rotation sends a2 to the front
    tup = lambda m, a1, a2: (m * 2 + a1) * 2 + a2
    for m in range(2):
        for a1 in range(2):
            for a2 in range(2):
                assert t2.column(tup(m, a1, a2)) == {tup(a2, m, a1): QQ.one}


def test_relative_object_dims_for_s3(s3_lambda):
    z = s3_lambda.relative
    assert [z.dim(n) for n in range(4)] == [4, 8, 16, 32]


def test_relative_object_with_general_coefficients_is_simplicial(kz2):
    ca = comodule_from_hopf(kz2)
    z = relative_cyclic(ca, unit_base(ca), m=regular_bimodule(ca), max_degree=2)
    assert z.simplicial_only
    with pytest.raises(ValueError, match="cyclic operator"):
        z.cyclic(1)


def _kz4_over_kz2():
    kz4 = group_algebra(FiniteGroup.cyclic(4), QQ)
    return strongly_graded(FiniteGroup.cyclic(2), kz4, {0: [0, 2], 1: [1, 3]}, name="kZ4")


def test_relative_object_refuses_a_right_action_that_is_not_associative():
    # u_j . x^i = u_{j + s(i)} with s = (0, 1, 2, 1): (u . x^2) . x^3 = u_{j+3}
    # but u . x^5 = u_{j+1}, so m b (x) a - m (x) b a does not die under d_0
    ca = _kz4_over_kz2()
    base = coinvariants(ca)
    assert base.dim == 2
    m = regular_bimodule(ca)
    m.right = SparseMatrix(4, 16, QQ, {j * 4 + i: {(j + (0, 1, 2, 1)[i]) % 4: 1}
                                       for j in range(4) for i in range(4)})
    assert not verify_bimodule(m).ok
    with pytest.raises(WellDefinednessError,
                       match="^face 0 at degree 1 does not preserve the relator span$"):
        relative_cyclic(ca, base, m, max_degree=1)


def _recorded_pushes(monkeypatch) -> list:
    """The `what` of every operator pushed through induced_matrix from now on."""
    whats = []
    push = QuotientSpace.induced_matrix

    def counted(self, op, source=None, what="operator"):
        whats.append(what)
        return push(self, op, source, what)

    monkeypatch.setattr(QuotientSpace, "induced_matrix", counted)
    return whats


def test_relative_object_pushes_each_operator_through_induced_matrix_once(
        s3_galois, monkeypatch):
    whats = _recorded_pushes(monkeypatch)
    z = relative_cyclic(s3_galois.ca, s3_galois.base, max_degree=2)
    # construction pushes exactly the operators between degrees 0..2
    in_truncation = (
        [f"face {i} at degree {n}" for n in (1, 2) for i in range(n + 1)]
        + [f"degeneracy {i} at degree {n}" for n in (0, 1) for i in range(n + 1)]
        + [f"the cyclic operator at degree {n}" for n in range(3)]
    )
    assert Counter(whats) == Counter(in_truncation)
    # a degeneracy out of the top degree waits until it is asked for
    z.degen(2, 1)
    assert whats[-1] == "degeneracy 1 at degree 2"
    for n in range(3):
        z.cyclic(n)
        for i in range(n + 1):
            z.degen(n, i)
            if n:
                z.face(n, i)
    assert len(whats) == len(set(whats))
    assert set(whats) == set(in_truncation) | {f"degeneracy {i} at degree 2" for i in range(3)}


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["q", "f3"])
@pytest.mark.parametrize("extension", ["s3_over_a3", "twisted_klein"])
def test_free_last_face_is_the_left_action_on_the_rotated_slot(extension, field):
    """The free object's last face, added in one batched pass, is column by
    column the slot_map formula: the left action on the last slot moved in
    front, added with vec_iadd_scaled, entry order and scalar types
    included, through degree 3 and for a scalar other than one."""
    ca, _ = resolve_extension(extension, field)
    free = relative_cyclic(ca, coinvariants(ca), None, max_degree=1).free
    left, ad, md = regular_bimodule(ca).left, ca.dim, ca.dim
    for n in (1, 2, 3):
        s = ad ** (n - 1)
        for c in (field.one, field.from_int(-2)):
            got = [{} for _ in range(free.dim(n))]
            free.add(got, "face", n, n, c)
            want = []
            for col in range(free.dim(n)):
                rest, a = divmod(col, ad)
                want.append(linalg.vec_iadd_scaled(
                    {}, slot_map(left, s, a * md * s + rest), c))
            assert ([[(k, type(v), v) for k, v in vec.items()] for vec in got]
                    == [[(k, type(v), v) for k, v in vec.items()] for vec in want])


def test_relative_object_defers_operators_its_identities_do_not_compose(kz2, monkeypatch):
    # the identities through degree 2 compose operators out of degrees 0..3;
    # at top 4 the faces and the cyclic operator out of degree 4 wait
    whats = _recorded_pushes(monkeypatch)
    ca = comodule_from_hopf(kz2)
    z = relative_cyclic(ca, unit_base(ca), max_degree=4)
    assert Counter(whats) == Counter(
        [f"face {i} at degree {n}" for n in (1, 2, 3) for i in range(n + 1)]
        + [f"degeneracy {i} at degree {n}" for n in range(4) for i in range(n + 1)]
        + [f"the cyclic operator at degree {n}" for n in range(4)]
    )
    z.boundary(4)
    assert whats[-5:] == [f"face {i} at degree 4" for i in range(5)]


def _s3_over_a3(request):
    g = request.getfixturevalue("s3_galois")
    return g.ca, g.base, None


def _kz4_over_kz2_case(request):
    ca = _kz4_over_kz2()
    return ca, coinvariants(ca), None


def _twisted_klein(request):
    ca = request.getfixturevalue("klein_twisted")
    return ca, coinvariants(ca), None


def _kz3_regular(request):
    ca = comodule_from_hopf(request.getfixturevalue("kz3"))
    return ca, unit_base(ca), regular_bimodule(ca)


def _kz3_twisted(request):
    # kZ3 with the right action twisted by the automorphism g -> g^2:
    # u_j . g^i = u_{j + 2i}
    ca = comodule_from_hopf(request.getfixturevalue("kz3"))
    right = SparseMatrix(3, 9, QQ, {j * 3 + i: {(j + 2 * i) % 3: QQ.one}
                                    for j in range(3) for i in range(3)})
    m = galois.Bimodule(ca, 3, ca.mult, right, name="kZ3_tw")
    assert verify_bimodule(m).ok
    return ca, unit_base(ca), m


@pytest.mark.parametrize("case", [
    _s3_over_a3, _kz4_over_kz2_case, _twisted_klein, _kz3_regular, _kz3_twisted,
], ids=["s3-over-a3", "kz4-over-kz2", "twisted-klein", "kz3-regular", "kz3-twisted"])
def test_quotient_level_identities_agree_with_the_free_model_check(case, request):
    # the quotient-level identity suite, run on every column; its degree-2
    # compositions reach one degree past the truncation, so it builds that
    # carrier lazily, and each degeneracy into it descends
    ca, base, m = case(request)
    z = relative_cyclic(ca, base, m, max_degree=3)
    assert z.simplicial_only == (m is not None)
    assert verify_cyclic_identities(z, 2).ok
    for i in range(4):
        s = z.degen(3, i)
        assert (s.nrows, s.ncols) == (z.carrier(4).dim, z.dim(3))


def test_galois_s3_over_a3_builds_no_carrier_above_the_truncation(s3_graded, monkeypatch):
    # what `galois s3_over_a3 --max-degree 2` builds: the Galois certificate
    # and the comparison, which needs carriers through degree 3 only
    # (6^4 = 1296 ambient, where the degree-4 carrier has 7776)
    ambient = []
    consumed = Counter()
    init, stream = QuotientSpace.__init__, galois.balancing_relators

    def recorded(self, ambient_dim, field, relators):
        ambient.append(ambient_dim)
        init(self, ambient_dim, field, relators)

    def counted(tix, junctions):
        for r in stream(tix, junctions):
            consumed[tix.size] += 1
            yield r

    monkeypatch.setattr(QuotientSpace, "__init__", recorded)
    monkeypatch.setattr(galois, "balancing_relators", counted)
    comp = lambda_iso(galois_check(s3_graded), max_degree=2)
    assert comp.report.ok and comp.hc_relative == [3, 0, 3]
    assert max(ambient) == 6 ** 4
    assert sum(consumed.values()) == 5_979


@pytest.mark.parametrize("field, hc", [(PrimeField(5), None), (QQ, [3, 0, 3])])
def test_lambda_iso_builds_the_top_carrier_only_for_cyclic_homology(
        s3_group, field, hc, monkeypatch):
    # the comparison through degree 2 needs carriers through degree 2; only
    # cyclic homology through degree 2 (over Q) needs the degree-3 carrier,
    # on the 6^4 = 1296-dimensional ambient
    ambient = []
    init = QuotientSpace.__init__

    def recorded(self, ambient_dim, f, relators):
        ambient.append(ambient_dim)
        init(self, ambient_dim, f, relators)

    monkeypatch.setattr(QuotientSpace, "__init__", recorded)
    alg = group_algebra(s3_group, field, name="kS3")
    blocks = {0: [i for i in range(6) if s3_group.element_order(i) != 2],
              1: [i for i in range(6) if s3_group.element_order(i) == 2]}
    ca = strongly_graded(FiniteGroup.cyclic(2), alg, blocks, name="kS3")
    comp = lambda_iso(galois_check(ca), max_degree=2)
    assert comp.report.ok and comp.hc_relative == hc
    assert comp.relative.top == (2 if hc is None else 3)
    assert (6 ** 4 in ambient) == (hc is not None)


def test_balancing_and_cyclic_relators_need_no_elimination(
        s3_galois, s3_group, monkeypatch):
    # every relator of the kS3 / kA3 carriers and of the kS3 lambda-quotients
    # has at most two terms, so QuotientSpace contracts them all and hands
    # echelonize an empty residual
    rows_in = []
    eliminate = linalg.echelonize

    def counted(rows, *args, **kwargs):
        rows = list(rows)
        rows_in.append(len(rows))
        return eliminate(rows, *args, **kwargs)

    monkeypatch.setattr(linalg, "echelonize", counted)
    z = relative_cyclic(s3_galois.ca, s3_galois.base, max_degree=4)
    assert [z.carrier(n).dim for n in range(5)] == [4, 8, 16, 32, 64]
    ks3 = group_algebra(s3_group, QQ)
    quotients, _ = connes_data(build_cyclic(ks3, adjoint(ks3), 4), 4)
    assert [q.dim for q in quotients] == [6, 15, 76, 330, 1560]
    assert len(rows_in) == 10 and not any(rows_in)


def _balanced_over_every_vector(ca, base):
    """`base` with every non-unit basis vector as a generator: the reference
    that balances the carriers over the whole base, not its generators."""
    unit = canonical_vec(ca.unit, QQ)
    vecs = [bv for bv in map(base.inclusion.column, range(base.dim))
            if canonical_vec(bv, QQ) != unit]
    return dataclasses.replace(base, generators=vecs)


def _a3_in_s3(request):
    g = request.getfixturevalue("s3_galois")
    return g.ca, g.base


def _sym_in_z4(request):
    # four-entry relators: B = span{1, g^2, g + g^3}, generated by g + g^3
    ca = comodule_from_hopf(request.getfixturevalue("kz4"))
    return ca, base_from_vectors(
        ca, [{0: QQ.one}, {2: QQ.one}, {1: QQ.one, 3: QQ.one}], name="sym")


def _klein_in_d4(request):
    # the degree-0 part {r0, r2, s0, s2} of kD4 graded by Z/2 needs two generators
    d4 = group_algebra(FiniteGroup.dihedral(4), QQ)
    ca = strongly_graded(FiniteGroup.cyclic(2), d4, {0: [0, 2, 4, 6], 1: [1, 3, 5, 7]},
                         name="kD4")
    return ca, coinvariants(ca)


@pytest.mark.parametrize("case, generators, two_term", [
    (_a3_in_s3, [{3: 1}], True),
    (_sym_in_z4, [{1: 1, 3: 1}], False),
    (_klein_in_d4, [{2: 1}, {4: 1}], True),
], ids=["a3-in-s3", "sym-in-z4", "klein-in-d4"])
def test_generator_balanced_carriers_match_every_vector_balancing(
        case, generators, two_term, request):
    ca, base = case(request)
    assert base.generators == generators
    z = relative_cyclic(ca, base, max_degree=3)
    ref = relative_cyclic(ca, _balanced_over_every_vector(ca, base), max_degree=3)
    for n in range(4):
        q, qref = z.carrier(n), ref.carrier(n)
        assert q.dim == qref.dim
        # the same relator span: each side's relator basis dies in the other
        assert not any(qref.project_vec(r) for r in q._relator_basis())
        assert not any(q.project_vec(r) for r in qref._relator_basis())
        # two-term relators are only contracted, so their span alone fixes
        # the quotient basis; longer ones leave the choice to echelonize,
        # whose pivots depend on the rows it is given
        if two_term:
            assert q.free_cols == qref.free_cols


def test_degree_four_carrier_of_s3_over_a3_takes_half_the_relators(s3_galois, monkeypatch):
    # kA3 is generated by one 3-cycle, so the 7776-dimensional free power
    # takes 5 junctions x 7776 tuples, all nonzero, instead of twice that
    consumed = Counter()
    stream = galois.balancing_relators

    def counted(tix, junctions):
        for r in stream(tix, junctions):
            consumed[tix.size] += 1
            yield r

    monkeypatch.setattr(galois, "balancing_relators", counted)
    ca, base = s3_galois.ca, s3_galois.base
    assert relative_cyclic(ca, base, max_degree=4).carrier(4).dim == 64
    assert consumed[6 ** 5] == 38_880
    consumed.clear()
    ref = relative_cyclic(ca, _balanced_over_every_vector(ca, base), max_degree=4)
    assert ref.carrier(4).dim == 64
    assert consumed[6 ** 5] == 77_760


def test_relative_hc_of_group_algebra_counts_classes(kz3):
    ca = comodule_from_hopf(kz3)
    z = relative_cyclic(ca, unit_base(ca), max_degree=4)
    assert hc_connes(z, 0, 3) == [3, 0, 3, 0]


# ---------------------------------------------------------------------------
# the slot-product comparison
# ---------------------------------------------------------------------------


def test_lambda_iso_for_kz3_over_scalars(kz3):
    g = galois_check(comodule_from_hopf(kz3))
    lc = lambda_iso(g, max_degree=3)
    assert lc.report.ok
    assert lc.hc_relative == lc.hc_hopf == [3, 0, 3, 0]


def test_lambda_iso_for_s3_extension(s3_lambda):
    assert s3_lambda.report.ok
    assert s3_lambda.hc_relative == [3, 0, 3, 0]
    assert s3_lambda.hc_hopf == [3, 0, 3, 0]
    assert s3_lambda.coefficients.dim == 4


def test_lambda_iso_with_explicit_coefficients_is_simplicial(kz2):
    g = galois_check(comodule_from_hopf(kz2))
    lc = lambda_iso(g, m=regular_bimodule(g.ca), max_degree=2)
    assert lc.report.ok
    assert lc.hc_relative is None and lc.hc_hopf is None
    assert lc.relative.simplicial_only
    # no cyclic homology, so no degree-3 carrier; below degree 2 the top
    # stays one up, so the identity suites still check through degree 2
    assert lc.relative.top == lc.hopf_side.top == 2
    assert lambda_iso(g, m=regular_bimodule(g.ca), max_degree=1).relative.top == 2


def test_comparison_map_must_descend():
    # a coaction altered after the Galois check: x^3 now has degree 0, so
    # the comparison map sends x^2 . x (x) x and x (x) x^3 to different legs
    ca = _kz4_over_kz2()
    g = galois_check(ca)
    ca.coaction = SparseMatrix(8, 4, QQ, {0: {0: 1}, 1: {3: 1}, 2: {4: 1}, 3: {6: 1}})
    with pytest.raises(WellDefinednessError,
                       match="^the comparison map at degree 1 does not preserve"):
        lambda_iso(g, m=regular_bimodule(ca), max_degree=1)


def test_lambda_matrices_intertwine_boundaries(s3_lambda):
    z, tgt = s3_lambda.relative, s3_lambda.hopf_side
    for n in (1, 2, 3):
        assert (
            tgt.boundary(n) @ s3_lambda.matrices[n]
            == s3_lambda.matrices[n - 1] @ z.boundary(n)
        )


# ---------------------------------------------------------------------------
# separable base change
# ---------------------------------------------------------------------------


def test_base_change_kz4_over_kz2(kz4):
    ca = comodule_from_hopf(kz4)
    mid = base_from_vectors(ca, [{0: QQ.one}, {2: QQ.one}], name="kZ2")
    bc = separable_base_change(ca, mid, unit_base(ca), high=3)
    assert bc.ok
    assert bc.quasi_iso.ok
    assert bc.hc_source == bc.hc_target == [4, 0, 4, 0]
    # the separability element of kZ2 inside: (1 (x) 1 + g^2 (x) g^2) / 2
    assert bc.separability_element == {0: QQ.coerce("1/2"), 3: QQ.coerce("1/2")}


def _kz2_inside_kz4_facts(ca, base) -> tuple:
    z = relative_cyclic(ca, base, max_degree=4)
    return (
        [z.dim(n) for n in range(5)],
        hochschild(z, 0, 3),
        hc_connes(z, 0, 3),
        [z.carrier(n).free_cols for n in range(5)],
        separable_base_change(ca, base, unit_base(ca), high=3).ok,
    )


def test_relative_object_does_not_depend_on_the_base_basis(kz4):
    # kZ2 = span{1, g^2} inside kZ4, once by its coordinate basis and once
    # spanned by 1 + g^2 and 1 - g^2
    ca = comodule_from_hopf(kz4)
    coord = base_from_vectors(ca, [{0: QQ.one}, {2: QQ.one}], name="kZ2")
    mixed = base_from_vectors(
        ca, [{0: QQ.one, 2: QQ.one}, {0: QQ.one, 2: -QQ.one}], name="kZ2")
    facts = _kz2_inside_kz4_facts(ca, coord)
    assert facts[:3] == ([4, 8, 16, 32, 64], [4, 0, 0, 0], [4, 0, 4, 0])
    assert facts[4]
    assert _kz2_inside_kz4_facts(ca, mixed) == facts


def test_relative_object_over_a_base_with_four_entry_relators(kz4, monkeypatch):
    # B = span{1, g^2, g + g^3}, the inversion-fixed part of kZ4 ~ Q x Q x Q(i),
    # is Q x Q x Q; so A (x)_B ... (x)_B A with n + 1 factors is
    # Q + Q + Q(i)^(x)(n+1), of dimension 2 + 2^(n+1).  Its balancing
    # relators x (g + g^3) (x) y - x (x) (g + g^3) y have four entries, so
    # the carriers are eliminated by echelonize, not only contracted
    ca = comodule_from_hopf(kz4)
    base = base_from_vectors(
        ca, [{0: QQ.one}, {2: QQ.one}, {1: QQ.one, 3: QQ.one}], name="sym")
    widths = []
    echelonize = linalg.echelonize

    def recorded(rows, *args, **kwargs):
        rows = list(rows)
        widths.extend(len(r) for r in rows)
        return echelonize(rows, *args, **kwargs)

    monkeypatch.setattr(linalg, "echelonize", recorded)
    z = relative_cyclic(ca, base, max_degree=4)
    assert [z.dim(n) for n in range(5)] == [4, 6, 10, 18, 34]
    assert widths and max(widths) == 4
    monkeypatch.undo()
    assert hochschild(z, 0, 3) == [4, 0, 0, 0]
    assert hc_connes(z, 0, 3) == [4, 0, 4, 0]


@pytest.mark.parametrize("explicit", [False, True], ids=["cyclic", "simplicial"])
@pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=["q", "f2"])
@pytest.mark.parametrize("extension, hh_q, hh_f2", [
    ("s3_over_a3", [3, 0, 0], [3, 2, 2]),
    ("kz4_over_kz2", [4, 0, 0], [4, 4, 4]),
    ("twisted_klein", [1, 0, 0], [4, 8, 12]),
], ids=["s3-over-a3", "kz4-over-kz2", "twisted-klein"])
def test_relative_hochschild_on_normalized_chains(extension, hh_q, hh_f2, field, explicit):
    # the builtin extensions, with A as coefficients or as an explicit
    # bimodule; over GF(2) the homology is nonzero in every degree
    ca, _ = resolve_extension(extension, field)
    z = relative_cyclic(ca, coinvariants(ca), regular_bimodule(ca) if explicit else None,
                        max_degree=3)
    assert z.simplicial_only == explicit
    want = hh_q if field is QQ else hh_f2
    assert hochschild(z, 0, 2) == homology_dims(z.chain_complex(3), 0, 2) == want


def test_base_change_to_itself_is_the_identity(kz2):
    ca = comodule_from_hopf(kz2)
    mid = base_from_vectors(ca, [{0: QQ.one}, {1: QQ.one}], name="all")
    bc = separable_base_change(ca, mid, mid, high=2)
    assert bc.ok


def test_non_separable_base_is_rejected():
    # k[x]/(x^2) is not separable over the scalars
    mult = SparseMatrix(2, 4, QQ, {0: {0: QQ.one}, 1: {1: QQ.one}, 2: {1: QQ.one}})
    a = AlgebraData(QQ, ("1", "x"), mult, {0: QQ.one}, name="dual numbers")
    assert verify_algebra(a).ok
    whole = base_from_vectors(a, [{0: QQ.one}, {1: QQ.one}], name="itself")
    with pytest.raises(ValueError, match="not separable"):
        separable_base_change(a, whole, unit_base(a), high=1)


# ---------------------------------------------------------------------------
# graded class folding
# ---------------------------------------------------------------------------


def test_graded_folding_for_s3_extension(s3_galois):
    gf = burghelea_graded(s3_galois, 0, 3)
    assert gf.report.ok
    assert gf.direct == gf.folded == [3, 0, 3, 0]
    assert gf.per_class["1"] == [2, 0, 0, 0]  # Z/2-coinvariants of the even span
    assert gf.per_class["g"] == [1, 0, 0, 0]  # one transposition class


def test_graded_folding_for_twisted_klein(klein_twisted):
    g = galois_check(klein_twisted)
    gf = burghelea_graded(g, 0, 4)
    assert gf.report.ok
    assert gf.direct == gf.folded == [1, 0, 1, 0, 1]
    # every nonidentity component is killed by the sign of the twist
    nontrivial = [k for k, v in gf.per_class.items() if any(v)]
    assert nontrivial == ["(1,1)"]


def test_graded_folding_of_group_algebra_by_itself(kz3):
    alg = kz3
    z3 = FiniteGroup.cyclic(3)
    ca = strongly_graded(z3, alg, {x: [x] for x in range(3)})
    gf = burghelea_graded(galois_check(ca), 0, 3)
    assert gf.direct == gf.folded == [3, 0, 3, 0]
    assert len(gf.per_class) == 3


def test_folding_requires_a_group_grading(kz3):
    g = galois_check(comodule_from_hopf(kz3))
    with pytest.raises(ValueError, match="group grading"):
        burghelea_graded(g, 0, 2)


# ---------------------------------------------------------------------------
# the truncation of the comparison
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("max_degree", [2, 3])
@pytest.mark.parametrize("field, extra", [(PrimeField(5), 0), (QQ, 1)], ids=["f5", "q"])
def test_lambda_iso_builds_past_max_degree_only_for_cyclic_homology(field, extra, max_degree):
    # over GF(p) the comparison computes no cyclic homology, so neither
    # object is built above max_degree; over Q both carry one degree more
    kz3 = group_algebra(FiniteGroup.cyclic(3), field)
    lc = lambda_iso(galois_check(comodule_from_hopf(kz3)), max_degree=max_degree)
    assert lc.report.ok
    assert (lc.hc_relative is None) == (extra == 0)
    assert lc.relative.top == lc.hopf_side.top == max_degree + extra
