"""Crossed coefficient modules: axioms, constructors, induction, the
group-algebra decomposition, and the coinvariants filtration."""

import pytest

from hopfcyclic.crossed import (
    CrossedModule,
    Filtration,
    action_tensor,
    adjoint,
    associated_graded,
    coadjoint,
    coinvariants_filtration,
    crossed_from_json,
    crossed_to_json,
    decompose_group_case,
    from_yetter_drinfeld,
    induce,
    modular_pair_module,
    one_dimensional,
    quotient_coaction,
    sub_coaction,
    trivial_module,
    u_map,
    verify_crossed,
    verify_modular,
)
from hopfcyclic.hopf import (
    FiniteGroup,
    group_algebra,
    group_subalgebra,
)
from hopfcyclic.linalg import (
    QQ,
    LinAlgError,
    QuotientSpace,
    SparseMatrix,
    Subspace,
    WellDefinednessError,
    solve,
)


@pytest.fixture(scope="module")
def kz2():
    return group_algebra(FiniteGroup.cyclic(2))


@pytest.fixture(scope="module")
def kz3():
    return group_algebra(FiniteGroup.cyclic(3))


@pytest.fixture(scope="module")
def kz4():
    return group_algebra(FiniteGroup.cyclic(4))


@pytest.fixture(scope="module")
def ks3():
    return group_algebra(FiniteGroup.symmetric(3))


def sign_character(h, parity):
    return {i: QQ.coerce(1 if parity(i) == 0 else -1) for i in range(h.dim)}


def test_adjoint_is_modular(kz2, ks3):
    for h in (kz2, ks3):
        m = adjoint(h)
        rep = verify_modular(m)
        assert rep.ok, rep.failures


def test_coadjoint_is_modular(kz3):
    m = coadjoint(kz3)
    assert verify_modular(m).ok


def test_trivial_module(ks3):
    m = trivial_module(ks3)
    assert m.dim == 1
    assert verify_modular(m).ok


def test_adjoint_action_is_conjugation(ks3):
    m = adjoint(ks3)
    g = ks3.group
    for i in range(6):
        for j in range(6):
            expected = g.mul(g.mul(i, j), g.inv(i))
            assert m.act_pairs(i, j) == [(expected, QQ.one)]


def test_sign_module_modular_with_trivial_coaction(kz2):
    chi = sign_character(kz2, lambda i: i)
    m = one_dimensional(kz2, chi, name="k_sign")
    assert verify_modular(m).ok


def test_sign_module_grouplike_coaction_breaks_modularity(kz2):
    chi = sign_character(kz2, lambda i: i)
    m = one_dimensional(kz2, chi, coaction_grouplike=1, name="k_sign_g")
    assert verify_crossed(m).ok
    rep = verify_modular(m)
    assert not rep.ok
    assert any("modularity" in c.name for c in rep.failures)
    assert u_map(m).to_dense()[0][0] == -1


def test_non_character_rejected(kz2):
    with pytest.raises(ValueError, match="character"):
        one_dimensional(kz2, {0: QQ.coerce(1), 1: QQ.coerce(2)})


@pytest.mark.parametrize("values, failure", [
    ({0: 1, 1: 2}, "is not multiplicative"),  # chi(g)^2 = 4, chi(g^2) = 1
    ({0: 0, 1: 0}, "does not send the unit to 1"),
])
def test_one_dimensional_and_modular_pair_check_the_character(kz2, values, failure):
    with pytest.raises(ValueError, match=f"^character {failure}$"):
        one_dimensional(kz2, values)
    with pytest.raises(ValueError, match=f"^delta {failure}$"):
        modular_pair_module(kz2, 0, values)


def test_u_map_identity_on_adjoint(kz4):
    m = adjoint(kz4)
    assert u_map(m) == SparseMatrix.identity(4, QQ)


def test_modular_pair_central_sigma(kz4):
    module, rep = modular_pair_module(kz4, sigma=1)
    assert rep.ok
    assert module.in_involution
    assert verify_modular(module).ok


def test_modular_pair_noncentral_sigma(ks3):
    # a transposition is not central in S3: the pair is not in involution
    # and the coefficients fail the crossed axioms, in agreement
    sigma = next(i for i in range(6) if ks3.group.element_order(i) == 2)
    module, rep = modular_pair_module(ks3, sigma=sigma)
    assert rep.ok  # the equivalence itself holds
    assert not module.in_involution
    assert not verify_modular(module).ok


def test_modular_pair_identity_sigma(ks3):
    module, rep = modular_pair_module(ks3, sigma=ks3.group.identity)
    assert rep.ok and module.in_involution
    assert verify_modular(module).ok


def test_yetter_drinfeld_conversion(ks3):
    # conjugation action with the comultiplication as left coaction
    g = ks3.group
    d = 6
    act_cols = {}
    for i in range(d):
        for j in range(d):
            act_cols[i * d + j] = {g.conjugate(i, j): QQ.one}
    action = SparseMatrix(d, d * d, QQ, act_cols)
    yd_co = SparseMatrix(d * d, d, QQ, {j: {j * d + j: QQ.one} for j in range(d)})
    m = from_yetter_drinfeld(ks3, d, action, yd_co)
    assert verify_modular(m).ok
    # the converted coaction is x -> x (x) x^{-1}
    for j in range(d):
        assert m.coact_pairs(j) == [((j, g.inv(j)), QQ.one)]


def test_yetter_drinfeld_rejects_bad_input(kz2):
    action = kz2.mult  # left regular action
    yd_co = SparseMatrix(4, 2, QQ, {j: {j * 2 + j: QQ.one} for j in range(2)})
    with pytest.raises(ValueError, match="Yetter-Drinfeld"):
        from_yetter_drinfeld(kz2, 2, action, yd_co)


def test_induce_dimension_and_modularity(kz4):
    sub = group_subalgebra(kz4, [0, 2])
    n = adjoint(sub.sub)
    ind = induce(sub, kz4, n)
    assert ind.dim == 4
    assert verify_modular(ind).ok


def test_induce_refuses_a_module_over_another_algebra_with_the_same_labels(ks3):
    sub = group_subalgebra(ks3, range(6))
    # over op_cop(sub.sub): the same basis labels, another Hopf algebra
    module, _ = modular_pair_module(sub.sub, ks3.group.identity)
    with pytest.raises(ValueError, match="not over the given subalgebra"):
        induce(sub, ks3, module)


def test_induce_from_trivial_subgroup(ks3):
    sub = group_subalgebra(ks3, [0])
    n = trivial_module(sub.sub)
    ind = induce(sub, ks3, n)
    assert ind.dim == 6
    assert verify_crossed(ind).ok


def test_decompose_adjoint_s3(ks3):
    m = adjoint(ks3)
    dec = decompose_group_case(m)
    assert dec.report.ok, dec.report.failures
    assert dec.modular
    # one-dimensional component at every group element
    assert sorted(dec.components) == list(range(6))
    assert all(c.dim == 1 for c in dec.components.values())
    # induced blocks have sizes 1, 3, 2 over the transversal
    sizes = [dec.induced[x].dim for x in dec.induced]
    assert sorted(sizes) == [1, 2, 3]


def test_decompose_reports_nonmodularity(kz2):
    chi = sign_character(kz2, lambda i: i)
    m = one_dimensional(kz2, chi, coaction_grouplike=1)
    dec = decompose_group_case(m)
    assert dec.report.ok  # the decomposition itself is fine
    assert not dec.modular


def test_action_tensor_inverts_act_matrix(ks3):
    m = adjoint(ks3)
    mats = [m.act_matrix(i) for i in range(ks3.dim)]
    assert action_tensor(mats, m.dim, QQ) == m.action


def test_sub_coaction_matches_a_solve_reference(ks3):
    # the diagonal {(m, m)} in ad(kS3) (+) ad(kS3), whose basis vectors
    # e_j + e_{6+j} are no coordinate vectors; the direct-sum coaction acts
    # on k^2 (x) M, so (s, j) flattens to s * 6 + j
    ad = adjoint(ks3)
    coaction = SparseMatrix.identity(2, QQ).kron(ad.coaction)
    sub = Subspace(2 * ad.dim, QQ, [{j: 1, ad.dim + j: 1} for j in range(ad.dim)])
    assert sub.dim == ad.dim and all(len(v) == 2 for v in sub.basis)
    got = sub_coaction(sub, coaction, ks3.dim, "not a subcomodule")
    wk = sub.basis_matrix().kron(SparseMatrix.identity(ks3.dim, QQ))
    want = SparseMatrix.from_columns(
        sub.dim * ks3.dim, QQ, [solve(wk, coaction.apply(v)) for v in sub.basis]
    )
    assert got == want
    # e0 + e1 in ad(kS3): rho(e0 + e1) = e0 (x) e0 + e1 (x) e1 leaves the span
    line = Subspace(ks3.dim, QQ, [{0: 1, 1: 1}])
    with pytest.raises(WellDefinednessError, match="not a subcomodule"):
        sub_coaction(line, adjoint(ks3).coaction, ks3.dim, "not a subcomodule")


def test_quotient_coaction_checks_descent(kz2):
    # k^2 / (e0 - e1) over kZ2: rho(e0) = e0 (x) 1 and rho(e1) = e1 (x) g
    # disagree on the relator, while rho(e_j) = e_j (x) g descends
    q = QuotientSpace(2, QQ, [{0: 1, 1: -1}])
    eye = SparseMatrix.identity(2, QQ)
    good = SparseMatrix(4, 2, QQ, {0: {1: 1}, 1: {3: 1}})
    assert quotient_coaction(q, good, eye, "a coaction") == SparseMatrix(2, 1, QQ, {0: {1: 1}})
    bad = SparseMatrix(4, 2, QQ, {0: {0: 1}, 1: {3: 1}})
    with pytest.raises(WellDefinednessError,
                       match="^the test coaction does not preserve the relator span$"):
        quotient_coaction(q, bad, eye, "the test coaction")


def test_filtration_trivial_coaction_exhausts_at_zero(ks3):
    m = trivial_module(ks3)
    filt = coinvariants_filtration(m)
    assert filt.exhaustive
    assert filt.stabilized_at == 0
    assert [s.dim for s in filt.steps] == [1]


def test_filtration_adjoint_not_exhaustive(kz2):
    m = adjoint(kz2)
    filt = coinvariants_filtration(m)
    assert not filt.exhaustive
    assert filt.stabilized_at == 0
    assert filt.steps[0].dim == 1
    assert filt.steps[0].contains({0: QQ.one})


def test_filtration_detects_unstable_step(kz2):
    # g swaps the two basis vectors but only m0 is coinvariant
    action = SparseMatrix(
        2, 4, QQ,
        {0: {0: QQ.one}, 1: {1: QQ.one}, 2: {1: QQ.one}, 3: {0: QQ.one}},
    )
    coaction = SparseMatrix(4, 2, QQ, {0: {0: QQ.one}, 1: {3: QQ.one}})
    m = CrossedModule(kz2, 2, action, coaction)
    with pytest.raises(ValueError, match="not stable"):
        coinvariants_filtration(m)


def test_associated_graded_of_trivial_coaction(ks3):
    t = trivial_module(ks3)
    filt = coinvariants_filtration(t)
    graded = associated_graded(t, filt)
    assert len(graded) == 1
    assert graded[0].dim == 1
    assert verify_crossed(graded[0]).ok


@pytest.mark.parametrize("swap, spans, message", [
    (False, [[{1: QQ.one}], [{0: QQ.one}]], "not inside"),
    (True, [[{0: QQ.one}]], "not action-stable"),
])
def test_associated_graded_rejects_bad_filtration(kz2, swap, spans, message):
    # these raise, rather than assert, so that they also hold under python -O;
    # the module is k^2 with trivial coaction m -> m (x) 1, and g swaps or fixes
    g = {2: {1: QQ.one}, 3: {0: QQ.one}} if swap else {2: {0: QQ.one}, 3: {1: QQ.one}}
    action = SparseMatrix(2, 4, QQ, {0: {0: QQ.one}, 1: {1: QQ.one}, **g})
    coaction = SparseMatrix(4, 2, QQ, {0: {0: QQ.one}, 1: {2: QQ.one}})
    m = CrossedModule(kz2, 2, action, coaction)
    filt = Filtration([Subspace(2, QQ, vs) for vs in spans], len(spans) - 1, False)
    with pytest.raises(LinAlgError, match=message):
        associated_graded(m, filt)


def test_associated_graded_rejects_a_nontrivial_graded_coaction(kz2):
    # one step, all of ad(kZ2): gr_0 is the module itself, whose coaction
    # g -> g (x) g is not trivial
    filt = Filtration([Subspace(2, QQ, [{0: 1}, {1: 1}])], 0, True)
    with pytest.raises(LinAlgError, match="graded piece 0 does not have trivial coaction"):
        associated_graded(adjoint(kz2), filt)


def test_crossed_json_roundtrip(kz3):
    m = adjoint(kz3)
    doc = crossed_to_json(m)
    m2 = crossed_from_json(kz3, doc)
    assert m2.action == m.action
    assert m2.coaction == m.coaction
    assert m2.basis == m.basis
