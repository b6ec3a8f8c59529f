"""Cyclic objects, their identity suites, and the homology routes."""

import gc
import sys
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from hopfcyclic.crossed import adjoint, coadjoint, modular_pair_module, one_dimensional, trivial_module
from hopfcyclic import cyclic, hopf, linalg
from hopfcyclic.cyclic import (
    CyclicObject,
    _sample_columns,
    CharacteristicError,
    bar_complex,
    build_aux_cyclic,
    build_cyclic,
    burghelea_finite,
    centralizer_homology,
    cocommutative_folding_check,
    group_homology,
    hc,
    hc_bicomplex,
    hc_connes,
    hochschild,
    norm_complex_homology,
    sbi_check,
    semisimple_reduction,
    shapiro_check,
    tor_oracle,
    tsygan_bicomplex,
    verify_cyclic_identities,
)
from hopfcyclic.cli import resolve_extension
from hopfcyclic.galois import coinvariants, galois_check, lambda_iso, relative_cyclic
from hopfcyclic.hopf import FiniteGroup, TensorIndex, conjugacy_data, group_algebra, group_subalgebra, separability_element, slot_map
from hopfcyclic.linalg import QQ, LinAlgError, PrimeField, SparseMatrix, TruncationError, Vec, WellDefinednessError, homology_dims, total_complex, vec_add_at, vec_iadd_scaled
from percolumn import per_column


@pytest.fixture(scope="module")
def kz2():
    return group_algebra(FiniteGroup.cyclic(2), QQ)


@pytest.fixture(scope="module")
def kz3():
    return group_algebra(FiniteGroup.cyclic(3), QQ)


@pytest.fixture(scope="module")
def kz4():
    return group_algebra(FiniteGroup.cyclic(4), QQ)


@pytest.fixture(scope="module")
def ks3():
    return group_algebra(FiniteGroup.symmetric(3), QQ)


def sign_module(h, grouplike=None):
    char = {i: h.field.one for i in range(h.dim)}
    char[1] = -h.field.one
    if h.dim == 4:  # order-4 cyclic: sign of the generator
        char = {0: h.field.one, 1: -h.field.one, 2: h.field.one, 3: -h.field.one}
    return one_dimensional(h, char, coaction_grouplike=grouplike, name="k_sign")


# ---------------------------------------------------------------------------
# coefficient-free object
# ---------------------------------------------------------------------------


def test_aux_dims_and_rotation(kz2):
    z = build_aux_cyclic(kz2, 3)
    assert z.dims == [2, 4, 8, 16]
    # degree-1 cyclic operator swaps the two tensor legs
    t1 = z.cyclic(1)
    want = SparseMatrix.permutation([0, 2, 1, 3], QQ)
    assert t1 == want


def test_aux_homology_z2(kz2):
    z = build_aux_cyclic(kz2, 6)
    assert hochschild(z, 0, 5) == [1, 0, 0, 0, 0, 0]
    assert hc_connes(z, 0, 5) == [1, 0, 1, 0, 1, 0]


def test_aux_homology_z3(kz3):
    z = build_aux_cyclic(kz3, 5)
    assert hochschild(z, 0, 4) == [1, 0, 0, 0, 0]
    assert hc_connes(z, 0, 4) == [1, 0, 1, 0, 1]


def test_aux_identity_suite(kz2):
    z = build_aux_cyclic(kz2, 3)
    rep = verify_cyclic_identities(z)
    assert rep.ok, rep.lines()


# ---------------------------------------------------------------------------
# coefficient object
# ---------------------------------------------------------------------------


def test_build_dims_and_tau0(kz4):
    m = adjoint(kz4)
    z = build_cyclic(kz4, m, 3)
    assert z.dims == [4, 16, 64, 256]
    assert z.cyclic(0) == SparseMatrix.identity(4, QQ)


def test_build_refuses_a_module_over_another_algebra_with_the_same_labels(ks3):
    # the modular-pair module lives over op_cop(kS3), which has kS3's labels
    module, _ = modular_pair_module(ks3, ks3.group.identity)
    with pytest.raises(ValueError, match="not over the given Hopf algebra"):
        build_cyclic(ks3, module, 3)


def test_simplicial_only_objects_have_no_cyclic_operator(kz2):
    z = build_cyclic(kz2, adjoint(kz2), 2)
    assert not z.simplicial_only
    simp = CyclicObject(QQ, 2, z.dim_fn, z.slots, z.add, name="S", cyclic=False)
    assert simp.simplicial_only
    with pytest.raises(AttributeError):
        simp.simplicial_only = False
    with pytest.raises(ValueError, match="S is simplicial only"):
        simp.cyclic(1)
    with pytest.raises(ValueError, match="no cyclic operator"):
        simp.apply_cyclic(1, {0: QQ.one})
    rep = verify_cyclic_identities(simp, 2)
    assert rep.ok and not any("cyclic" in c.name for c in rep.checks)


def test_identity_suite_samples_by_the_degree_two_dimension():
    def obj(d2):
        return CyclicObject(QQ, 2, lambda n: d2 if n == 2 else 10, None, None)

    assert _sample_columns(obj(256)) is None
    cols = _sample_columns(obj(257))
    assert list(cols(2)) == [0, 85, 128, 171, 256]
    assert list(cols(0)) == [0, 3, 5, 6, 9]
    # ad(kS3) (dim 2 carrier 216) is checked in full, ad(kD4) (512) sampled
    ks3 = group_algebra(FiniteGroup.symmetric(3), QQ)
    assert _sample_columns(build_cyclic(ks3, adjoint(ks3), 2)) is None
    kd4 = group_algebra(FiniteGroup.dihedral(4), QQ)
    assert _sample_columns(build_cyclic(kd4, adjoint(kd4), 2)) is not None


def test_identity_suite_small(kz2, kz3):
    za = build_cyclic(kz2, adjoint(kz2), 4)
    assert verify_cyclic_identities(za).ok
    zt = build_cyclic(kz3, trivial_module(kz3), 3)
    assert verify_cyclic_identities(zt).ok


def test_non_modular_refused(kz2):
    sgn = sign_module(kz2, grouplike=1)
    with pytest.raises(ValueError, match="not modular"):
        build_cyclic(kz2, sgn, 3)


def test_non_modular_diagnostic_pinpoints_cyclic_order(kz2):
    sgn = sign_module(kz2, grouplike=1)
    z = build_cyclic(kz2, sgn, 3, require_modular=False)
    rep = verify_cyclic_identities(z, 2)
    assert not rep.ok
    failing = {c.name for c in rep.failures}
    assert failing == {f"cyclic operator order at degree {n}" for n in range(3)}


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_face_face_identity_random(data):
    h = group_algebra(FiniteGroup.cyclic(3), QQ)
    z = build_cyclic(h, adjoint(h), 4)
    n = data.draw(st.integers(min_value=2, max_value=4))
    j = data.draw(st.integers(min_value=1, max_value=n))
    i = data.draw(st.integers(min_value=0, max_value=j - 1))
    c = data.draw(st.integers(min_value=0, max_value=z.dim(n) - 1))
    lhs = z.apply_face(n - 1, i, z.face_fn(n, j, c))
    rhs = z.apply_face(n - 1, j - 1, z.face_fn(n, i, c))
    assert lhs == rhs


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_cyclic_order_random(data):
    h = group_algebra(FiniteGroup.cyclic(4), QQ)
    z = build_cyclic(h, adjoint(h), 3)
    n = data.draw(st.integers(min_value=0, max_value=3))
    c = data.draw(st.integers(min_value=0, max_value=z.dim(n) - 1))
    v = {c: QQ.one}
    for _ in range(n + 1):
        v = z.apply_cyclic(n, v)
    assert v == {c: QQ.one}


# ---------------------------------------------------------------------------
# Hochschild and the bar oracle
# ---------------------------------------------------------------------------


def test_hochschild_adjoint_z2(kz2):
    z = build_cyclic(kz2, adjoint(kz2), 5)
    assert hochschild(z, 0, 4) == [2, 0, 0, 0, 0]


def test_hochschild_vanishes_above_zero(kz3):
    z = build_cyclic(kz3, adjoint(kz3), 4)
    assert hochschild(z, 0, 3) == [3, 0, 0, 0]


def test_hochschild_counit_coefficients(kz3):
    z = build_cyclic(kz3, trivial_module(kz3), 3)
    assert hochschild(z, 0, 2) == [1, 0, 0]


def test_bar_oracle_matches_hochschild(kz4):
    m = adjoint(kz4)
    z = build_cyclic(kz4, m, 4)
    assert hochschild(z, 0, 3) == tor_oracle(kz4, m, 0, 3)


def test_bar_oracle_sign_coefficients(kz2):
    sgn = sign_module(kz2)  # trivial coaction
    assert tor_oracle(kz2, sgn, 0, 4) == [0, 0, 0, 0, 0]


def test_sweedler_adjoint_homology(sweedler_h4):
    """The non-cocommutative case: Hochschild equals the Tor oracle and the
    two cyclic routes agree, with counit faces that vanish on x and gx."""
    h = sweedler_h4
    m = adjoint(h)
    z = build_cyclic(h, m, 4)
    assert hochschild(z, 0, 3) == tor_oracle(h, m, 0, 3) == [2, 1, 1, 1]
    assert hc(z, 0, 3, method="both") == [2, 1, 2, 1]


@pytest.mark.parametrize("algebra", ["sweedler", "ks3"])
def test_counit_faces_match_slot_dropping(algebra, sweedler_h4, ks3):
    """Faces 0..n-1 equal dropping slot i of the unflattened tuple through
    the counit, entry by entry.  So do the degeneracies of both objects and
    the operators of the coefficient-free one, against their definitions
    on unflattened tuples."""
    h = sweedler_h4 if algebra == "sweedler" else ks3
    m = adjoint(h)
    z = build_cyclic(h, m, 3)
    for n in range(1, 4):
        src = TensorIndex([h.dim] * n + [m.dim])
        tgt = TensorIndex([h.dim] * (n - 1) + [m.dim])
        for i in range(n):
            cols = {}
            for col in range(src.size):
                slots = src.unflatten(col)
                c = h.counit_of(slots[i])
                if c:
                    cols[col] = {tgt.flatten(slots[:i] + slots[i + 1:]): c}
            assert z.face(n, i) == SparseMatrix(tgt.size, src.size, h.field, cols)
    if algebra == "sweedler":
        assert any(z.face_fn(1, 0, col) == {} for col in range(z.dim(1)))

    def slot_matrix(src, tgt, slots_fn):
        """The matrix whose column at a basis tuple t of src is the sum of
        c e_u over the (u, c) in slots_fn(t), u a basis tuple of tgt."""
        cols = {}
        for col in range(src.size):
            v = {}
            for u, c in slots_fn(src.unflatten(col)):
                linalg.vec_add_at(v, tgt.flatten(u), c)
            if v:
                cols[col] = v
        return SparseMatrix(tgt.size, src.size, h.field, cols)

    def carrier(k, module=True):
        return TensorIndex([h.dim] * k + [m.dim] * module)

    # degeneracies comultiply slot i, or append the unit before the module
    for n in range(4):
        for i in range(n + 1):
            want = slot_matrix(carrier(n), carrier(n + 1), lambda t: (
                [(t[:i] + ab + t[i + 1:], c) for ab, c in h.comult_pairs(t[i])]
                if i < n else
                [(t[:n] + (u,) + t[n:], c) for u, c in h.unit.items()]))
            assert z.degen(n, i) == want
    # the coefficient-free object: counit faces, comultiplying
    # degeneracies and rotation
    aux = build_aux_cyclic(h, 3)
    eps = h.counit_of
    for n in range(4):
        here = carrier(n + 1, module=False)
        for i in range(n + 1):
            if n:
                assert aux.face(n, i) == slot_matrix(here, carrier(n, False), lambda t: (
                    [(t[:i] + t[i + 1:], eps(t[i]))] if eps(t[i]) else []))
            if n < 3:
                assert aux.degen(n, i) == slot_matrix(here, carrier(n + 2, False), lambda t: [
                    (t[:i] + ab + t[i + 1:], c) for ab, c in h.comult_pairs(t[i])])
        assert aux.cyclic(n) == slot_matrix(here, here, lambda t: [(t[-1:] + t[:-1], h.field.one)])


def _slot_by_slot_evaluators(h, m):
    """Reference evaluators for ``build_cyclic``, written slot by slot: the
    last face and the cyclic operator fan the last slot out term by term
    through the antipode and the product, and the degeneracies unflatten
    and flatten."""
    f = h.field
    hd, md = h.dim, m.dim

    @lru_cache(maxsize=None)
    def index(n):
        return TensorIndex([hd] * n + [md])

    def face_fn(n, i, col):
        if i < n:
            # drop slot i through the counit: col = (high * hd + slot) * s + low
            # with s the slot's stride, and the target index is high * s + low
            s = index(n).strides[i]
            high, rest = divmod(col, s * hd)
            slot, low = divmod(rest, s)
            c = h.counit_of(slot)
            if not c:
                return {}
            return {high * s + low: c}
        slots = index(n).unflatten(col)
        tgt = index(n - 1)
        # last face: fan the final slot out through the antipode
        out: Vec = {}
        last, mi = slots[n - 1], slots[n]
        for legs, cleg in h.sweedler(last, n):
            partial = [((), cleg)]
            for k in range(n - 1):
                leg = legs[n - 2 - k]
                new = []
                for tup, cc in partial:
                    for s_idx, cs in h.antipode_of(leg).items():
                        for p, cp in h.mult_pairs(slots[k], s_idx):
                            new.append((tup + (p,), cc * cs * cp))
                partial = new
            for tup, cc in partial:
                for mj, ca in m.act_pairs(legs[n - 1], mi):
                    vec_add_at(out, tgt.flatten(tup + (mj,)), cc * ca)
        return out

    def degen_fn(n, i, col):
        slots = index(n).unflatten(col)
        tgt = index(n + 1)
        out: Vec = {}
        if i < n:
            for (a, b), c in h.comult_pairs(slots[i]):
                vec_add_at(out, tgt.flatten(slots[:i] + (a, b) + slots[i + 1:]), c)
        else:
            for u, cu in h.unit.items():
                vec_add_at(out, tgt.flatten(slots[:n] + (u,) + slots[n:]), cu)
        return out

    def cyclic_fn(n, col):
        ti = index(n)
        slots = ti.unflatten(col)
        mi = slots[n]
        out: Vec = {}
        if n == 0:
            for (m0, m1), c in m.coact_pairs(mi):
                for mj, ca in m.act_pairs(m1, m0):
                    vec_add_at(out, mj, c * ca)
            return out
        last = slots[n - 1]
        for legs, cleg in h.sweedler(last, n + 1):
            for (m0, m1), cco in m.coact_pairs(mi):
                partial = []
                for s_idx, cs in h.antipode_of(legs[n - 1]).items():
                    for p, cp in h.mult_pairs(m1, s_idx):
                        partial.append(((p,), cleg * cco * cs * cp))
                for k in range(1, n):
                    leg = legs[n - k - 1]
                    new = []
                    for tup, cc in partial:
                        for s_idx, cs in h.antipode_of(leg).items():
                            for p, cp in h.mult_pairs(slots[k - 1], s_idx):
                                new.append((tup + (p,), cc * cs * cp))
                    partial = new
                for tup, cc in partial:
                    for mj, ca in m.act_pairs(legs[n], m0):
                        vec_add_at(out, ti.flatten(tup + (mj,)), cc * ca)
        return out

    return face_fn, degen_fn, cyclic_fn


@pytest.mark.parametrize("case, top", [
    ("ks3-ad", 4), ("ks3-coad", 4), ("h4-ad", 4), ("h4-coad", 4),
    ("h4-pair-g", 4), ("h4-pair-sign", 4), ("kd4_f5-ad", 3),
])
def test_fan_tables_match_the_slot_by_slot_evaluators(case, top, request):
    """Every face, degeneracy, cyclic operator and boundary matrix through
    degree `top` equals the one the slot-by-slot formulas give."""
    if case == "kd4_f5-ad":
        h = group_algebra(FiniteGroup.dihedral(4), PrimeField(5))
        m = adjoint(h)
    else:
        h, m = _route_case(case, request)
    z = build_cyclic(h, m, top)
    face_fn, degen_fn, cyclic_fn = _slot_by_slot_evaluators(h, m)

    def matrix(fn, n, target):
        cols = {c: v for c in range(z.dim(n)) if (v := fn(c))}
        return SparseMatrix(z.dim(target), z.dim(n), h.field, cols)

    for n in range(top + 1):
        boundary = SparseMatrix.zero(z.dim(n - 1), z.dim(n), h.field)
        for i in range(n + 1):
            if n:
                face = matrix(lambda c: face_fn(n, i, c), n, n - 1)
                assert z.face(n, i) == face
                boundary = boundary - face if i % 2 else boundary + face
            assert z.degen(n, i) == matrix(lambda c: degen_fn(n, i, c), n, n + 1)
        assert z.cyclic(n) == matrix(lambda c: cyclic_fn(n, c), n, n)
        if n:
            assert z.boundary(n) == boundary



def _algebra(name, field):
    """kS3, kD4 or Sweedler's H4 over `field`."""
    if name == "h4":
        return hopf.sweedler_h4(field)
    group = FiniteGroup.symmetric(3) if name == "ks3" else FiniteGroup.dihedral(4)
    return group_algebra(group, field)


@pytest.mark.parametrize("case, field", [
    ("ks3-ad", QQ), ("ks3-ad", PrimeField(5)), ("h4-ad", PrimeField(5)),
    ("h4-coad", PrimeField(5)), ("kd4-ad", PrimeField(5)),
    ("ks3-aux", PrimeField(5)), ("h4-aux", QQ), ("h4-aux", PrimeField(5)),
])
def test_boundaries_from_slot_faces_match_the_per_column_sums(case, field):
    """boundary and norm_boundary, which add the declared counit faces a
    whole face at a time, equal the sums of an object rebuilt from the same
    evaluators with no slot faces declared, column by column, through
    degree 3."""
    name, coefficients = case.split("-")
    h = _algebra(name, field)
    if coefficients == "aux":
        z = build_aux_cyclic(h, 3)
    else:
        z = build_cyclic(h, adjoint(h) if coefficients == "ad" else coadjoint(h), 3)
    plain = per_column(z.field, z.top, z.dim_fn, z.face_fn, z.degen_fn, z.cyclic_fn)
    for n in range(1, 4):
        assert len(z.slots("face", n)) == (n + 1 if coefficients == "aux" else n)
        assert z.boundary(n) == plain.boundary(n)
        assert z.norm_boundary(n) == plain.norm_boundary(n)
        assert list(z.boundary(n).cols) == list(plain.boundary(n).cols)


@pytest.mark.parametrize("name, coefficients, field, top", [
    ("ks3", "ad", QQ, 4), ("ks3", "coad", QQ, 4),
    ("ks3", "ad", PrimeField(2), 4), ("ks3", "coad", PrimeField(2), 4),
    ("ks3", "ad", PrimeField(5), 4), ("ks3", "coad", PrimeField(5), 4),
    ("h4", "ad", QQ, 5), ("h4", "coad", QQ, 5),
])
def test_batched_fan_matches_the_evaluators(name, coefficients, field, top):
    """fan_add, the one definition of the last face and the cyclic operator,
    equals the slot-by-slot reference evaluators at every column through
    `top`.  Added with c = 3 to columns holding -3 times the reference,
    every entry cancels and is deleted.  H4's multi-term Sweedler legs and
    its empty columns are covered."""
    h = _algebra(name, field)
    m = adjoint(h) if coefficients == "ad" else coadjoint(h)
    z = build_cyclic(h, m, top)
    face_fn, _, cyclic_fn = _slot_by_slot_evaluators(h, m)
    three = field.coerce(3)
    for n in range(1, top + 1):
        for tau, reference in ((False, lambda c: face_fn(n, n, c)),
                               (True, lambda c: cyclic_fn(n, c))):
            want = [reference(c) for c in range(z.dim(n))]
            cols = [{} for _ in want]
            z.add(cols, "cyclic" if tau else "face", n, n, field.one)
            assert cols == want
            cols = [{k: -(three * v) for k, v in col.items()} for col in want]
            z.add(cols, "cyclic" if tau else "face", n, n, three)
            assert not any(cols)
            if name == "h4" and n == 2 and not tau:
                assert {} in want and any(len(col) > 1 for col in want)
    if name == "h4":
        assert any(len(legs) > 1 for legs in (h.sweedler(x, 3) for x in range(4)))


@pytest.mark.parametrize("case", ["ks3-ad", "h4-coad"])
def test_boundary_and_cyclic_call_no_per_column_fan_evaluator(case, request):
    """boundary, norm_boundary and cyclic at degree 4, and the (b, B)
    bicomplex through total degree 3 with its d_0 tau_n = d_n check, never
    ask for an evaluator (which face_fn, cyclic_fn and the apply_* extensions
    of an operator that is not a slot read): they read fan_add.  The check
    applies only the slot face d_0, through ``_apply``, the dispatch point
    of the apply_* extensions."""
    h, m = _route_case(case, request)
    z = build_cyclic(h, m, 4)
    built, applied = [], []
    evaluator, apply = z._evaluator, z._apply

    def recorded_evaluator(kind, n, i):
        built.append((kind, n, i))
        return evaluator(kind, n, i)

    def recorded_apply(kind, n, i, vec):
        applied.append((kind, n, i))
        return apply(kind, n, i, vec)

    z._evaluator, z._apply = recorded_evaluator, recorded_apply
    z.boundary(4), z.norm_boundary(4), z.cyclic(4)
    assert built == applied == []
    hc_bicomplex(z, 0, 3)
    assert built == []
    assert applied and all(kind == "face" and i < n for kind, n, i in applied)


def _declared_objects(case):
    """The objects of one builder, through degree 3."""
    if case.startswith("rel-"):
        ca, _ = resolve_extension(case[4:], QQ)
        z = relative_cyclic(ca, coinvariants(ca), None, 3)
        return [z.free, z]
    name, coefficients, field = case.split("-")
    h = _algebra(name, QQ if field == "q" else PrimeField(5))
    if coefficients == "aux":
        return [build_aux_cyclic(h, 3)]
    return [build_cyclic(h, adjoint(h) if coefficients == "ad" else coadjoint(h), 3)]


@pytest.mark.parametrize("case", [
    "ks3-ad-q", "ks3-ad-f5", "h4-coad-q", "h4-aux-q",
    "rel-s3_over_a3", "rel-twisted_klein",
])
def test_evaluators_are_the_columns_of_the_declared_operators(case):
    """Each builder declares its slots and one adder, and nothing else:
    through degree 3, at every column, the derived evaluator of every
    face, degeneracy and cyclic operator equals the column of its matrix,
    built beforehand through the declarations, and every degeneracy
    declared as a slot equals ``slot_map`` of its (tensor, stride)."""
    for z in _declared_objects(case):
        for n in range(4):
            ops = [(z.degen(n, i), lambda c, i=i: z.degen_fn(n, i, c)) for i in range(n + 1)]
            ops += [(z.face(n, i), lambda c, i=i: z.face_fn(n, i, c)) for i in range(n + 1) if n]
            if not z.simplicial_only:
                ops.append((z.cyclic(n), lambda c: z.cyclic_fn(n, c)))
            for matrix, fn in ops:
                assert all(fn(c) == matrix.cols.get(c, {}) for c in range(z.dim(n)))
            # every degeneracy is a slot, except on the quotient carriers
            slots = z.slots("degen", n)
            assert len(slots) == (0 if hasattr(z, "carrier") else n + 1)
            for i, (t, stride) in enumerate(slots):
                assert all(slot_map(t, stride, c) == z.degen(n, i).cols.get(c, {})
                           for c in range(z.dim(n)))


def test_homology_and_the_galois_comparison_leave_no_cyclic_garbage(
        ks3, sweedler_h4, s3_graded):
    """Z(H, M) with every homology route, and the Galois comparison, hold
    no reference cycle: with the cyclic collector off, dropping them frees
    everything they built, so the collector then finds nothing."""
    gc.collect()
    gc.disable()
    try:
        for h, m in ((ks3, adjoint(ks3)), (sweedler_h4, coadjoint(sweedler_h4))):
            z = build_cyclic(h, m, 3)
            hochschild(z, 0, 2), hc_bicomplex(z, 0, 2), hc_connes(z, 0, 2)
            del z, m
        comp = lambda_iso(galois_check(s3_graded), max_degree=2)
        del comp
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("name, coefficients, field", [
    ("ks3", "ad", QQ), ("ks3", "ad", PrimeField(5)), ("ks3", "coad", PrimeField(5)),
    ("h4", "ad", QQ), ("h4", "coad", PrimeField(5)),
])
def test_bar_differentials_match_the_per_column_slot_map_sums(name, coefficients, field):
    """Each bar differential through degree 3 is the per-column sum of its
    terms: the counit on the first slot, the products of adjacent slots and
    the action of the last slot on the module, with signs (-1)^i."""
    h = _algebra(name, field)
    m = adjoint(h) if coefficients == "ad" else coadjoint(h)
    bar = bar_complex(h, m.dim, m.action, 3)
    for n in range(1, 4):
        terms = ([(h.counit_matrix(), h.dim ** (n - 1) * m.dim)]
                 + [(h.mult, h.dim ** (n - 1 - i) * m.dim) for i in range(1, n)]
                 + [(m.action, 1)])
        cols = {}
        for c in range(h.dim ** n * m.dim):
            acc: Vec = {}
            for i, (t, s) in enumerate(terms):
                vec_iadd_scaled(acc, slot_map(t, s, c), -field.one if i % 2 else field.one)
            if acc:
                cols[c] = acc
        assert bar.diff(n) == SparseMatrix(h.dim ** (n - 1) * m.dim, h.dim ** n * m.dim, field, cols)

def test_norm_complex_acyclic(kz2):
    z = build_cyclic(kz2, adjoint(kz2), 5)
    assert norm_complex_homology(z, 0, 3) == [0, 0, 0, 0]


def test_truncation_errors(kz2):
    z = build_cyclic(kz2, adjoint(kz2), 3)
    with pytest.raises(TruncationError):
        hochschild(z, 0, 3)
    with pytest.raises(TruncationError):
        hc_connes(z, 0, 3)


# ---------------------------------------------------------------------------
# cyclic homology routes
# ---------------------------------------------------------------------------


def test_hc_adjoint_z2(kz2):
    z = build_cyclic(kz2, adjoint(kz2), 5)
    assert hc_connes(z, 0, 4) == [2, 0, 2, 0, 2]


def test_hc_trivial_z3(kz3):
    z = build_cyclic(kz3, trivial_module(kz3), 4)
    assert hc_connes(z, 0, 3) == [1, 0, 1, 0]


def test_hc_degree_zero_equals_hochschild(kz3, kz4):
    for h in (kz3, kz4):
        z = build_cyclic(h, adjoint(h), 2)
        assert hc_connes(z, 0, 1)[0] == hochschild(z, 0, 1)[0]


def test_hc_routes_agree(kz2, kz3):
    za = build_cyclic(kz2, adjoint(kz2), 4)
    assert hc(za, 0, 3, method="both") == [2, 0, 2, 0]
    zt = build_cyclic(kz3, trivial_module(kz3), 4)
    assert hc_bicomplex(zt, 0, 3) == hc_connes(zt, 0, 3) == [1, 0, 1, 0]


def test_characteristic_gate():
    f3 = PrimeField(3)
    h = group_algebra(FiniteGroup.cyclic(2), f3)
    z = build_cyclic(h, adjoint(h), 3)
    assert hochschild(z, 0, 2) == [2, 0, 0]
    with pytest.raises(CharacteristicError):
        hc_connes(z, 0, 2)
    with pytest.raises(CharacteristicError):
        hc_bicomplex(z, 0, 2)


def _route_case(case, request):
    """(Hopf algebra, crossed module) for a route-agreement case."""
    name, coefficients = case.split("-", 1)
    h = request.getfixturevalue("sweedler_h4" if name == "h4" else name)
    if coefficients == "ad":
        return h, adjoint(h)
    if coefficients == "coad":
        return h, coadjoint(h)
    # H4's two crossed modular pairs: (g, counit) and (1, g -> -1)
    delta = {0: 1, 1: -1} if coefficients == "pair-sign" else None
    m, _ = modular_pair_module(h, 1 if coefficients == "pair-g" else 0, delta)
    return m.h, m


@pytest.mark.parametrize("case, want", [
    ("kz2-ad", [2, 0, 2, 0]),
    ("kz3-ad", [3, 0, 3, 0]),
    ("ks3-ad", [3, 0, 3, 0]),
    ("ks3-coad", [1, 0, 1, 0]),
    # degeneracy relators that are not coordinate tuples
    ("h4-ad", [2, 1, 2, 1]),
    ("h4-coad", [1, 0, 1, 0]),
    ("h4-pair-g", [1, 0, 2, 0]),
    ("h4-pair-sign", [0, 1, 0, 2]),
])
def test_cyclic_routes_agree_with_the_staircase_oracle(case, want, request):
    h, m = _route_case(case, request)
    z = build_cyclic(h, m, 4)
    staircase = homology_dims(total_complex(tsygan_bicomplex(z, 3), 3), 0, 3)
    assert hc_bicomplex(z, 0, 3) == hc_connes(z, 0, 3) == staircase == want


def _contract_reduce_reindex(target, source, op):
    """op pushed from source to target the long way: contract each column
    on the target's roots, reduce by its residual echelon, reindex."""
    cols = {}
    for k, c in enumerate(source.free_cols):
        contracted: Vec = {}
        for j, x in op.cols.get(c, {}).items():
            root = target._parent[j]
            if root not in target._killed:
                vec_add_at(contracted, root, target._factor[j] * x)
        col = {target._free_index[j]: w
               for j, w in target._ech.reduce(contracted).items()}
        if col:
            cols[k] = col
    return cols


@pytest.mark.parametrize("case, residual", [("ks3-ad", False), ("h4-ad", True)])
def test_quotient_boundaries_match_contract_reduce_reindex(case, residual, request):
    """The lambda and normalized quotients of (kS3, ad) through degree 4
    leave no residual row, so they project through the table; the lambda
    quotients of (H4, ad) at degrees 1-3 keep some.  Either way each induced
    boundary is the long-way push, column and entry order included."""
    h, m = _route_case(case, request)
    z = build_cyclic(h, m, 4)
    lam, _ = cyclic.connes_data(z, 4)
    norm, _ = cyclic._normalized(z, 4)
    if residual:
        assert all(lam[n]._ech.rows for n in (1, 2, 3))
    else:
        assert not any(q._ech.rows for q in lam + norm)
    for kind, qs, on in (("lambda", lam, "the cyclic quotient"),
                         ("normalized", norm, "normalized chains")):
        for n in range(1, 5):
            got = z.quotient_boundary(kind, n, on)
            want = _contract_reduce_reindex(qs[n - 1], qs[n], z.boundary(n))
            assert ([(k, list(v.items())) for k, v in got.cols.items()]
                    == [(k, list(v.items())) for k, v in want.items()])


@pytest.mark.parametrize("case, high, want", [
    ("ks3-ad", 3, [3, 0, 0, 0]),
    ("ks3-coad", 3, [1, 0, 0, 0]),
    ("h4-ad", 3, [2, 1, 1, 1]),
    ("h4-coad", 3, [1, 0, 0, 0]),
    ("h4-pair-g", 3, [1, 0, 1, 0]),
    ("h4-pair-sign", 3, [0, 1, 0, 1]),
    ("kz2_f2-ad", 3, [2, 2, 2, 2]),
    ("kd4_f5-ad", 2, [5, 0, 0]),
])
def test_normalized_hochschild_matches_the_unnormalized_complex(case, high, want, request):
    if "_f" in case:
        name, p = case.split("-")[0].split("_f")
        group = FiniteGroup.cyclic(2) if name == "kz2" else FiniteGroup.dihedral(4)
        h = group_algebra(group, PrimeField(int(p)))
        m = adjoint(h)
    else:
        h, m = _route_case(case, request)
    z = build_cyclic(h, m, high + 1)
    assert hochschild(z, 0, high) == homology_dims(z.chain_complex(high + 1), 0, high) == want


def test_each_quotient_carrier_is_built_once(ks3, monkeypatch):
    # hochschild reads the normalized carriers and b-bar that the (b, B)
    # bicomplex built; a longer lambda route adds only its top quotient
    built, pushed = [], []
    quotient, push = cyclic.QuotientSpace, linalg.QuotientSpace.induced_matrix

    def counted(ambient_dim, field, relators):
        built.append(ambient_dim)
        return quotient(ambient_dim, field, relators)

    def recorded(self, op, source=None, what="operator"):
        pushed.append(what)
        return push(self, op, source, what)

    monkeypatch.setattr(cyclic, "QuotientSpace", counted)
    monkeypatch.setattr(linalg.QuotientSpace, "induced_matrix", recorded)
    z = build_cyclic(ks3, adjoint(ks3), 4)
    assert hc_bicomplex(z, 0, 3) == [3, 0, 3, 0]
    assert built == [6, 36, 216, 1296, 7776]
    assert len(pushed) == 7  # b-bar at degrees 1..4, B at degrees 0..2
    assert hochschild(z, 0, 3) == [3, 0, 0, 0]
    assert len(built) == 5 and len(pushed) == 7
    assert hc_connes(z, 0, 2) == [3, 0, 3]
    assert built[5:] == [6, 36, 216, 1296]
    assert hc_connes(z, 0, 3) == [3, 0, 3, 0]
    assert built[9:] == [7776]
    assert pushed[7:] == [f"boundary at degree {n} on the cyclic quotient"
                          for n in (1, 2, 3, 4)]


def test_bicomplex_route_works_on_normalized_chains(ks3, monkeypatch):
    # normalized carriers have dims 6 * 5^n, so the total complex is
    # [6, 30, 150 + 6, 750 + 30, 3750 + 150 + 6]; the staircase's
    # last-face-omitted boundary is never built
    z = build_cyclic(ks3, adjoint(ks3), 4)
    totals = []
    tot = cyclic.total_complex

    def recorded(b, top):
        c = tot(b, top)
        totals.append(c.dims)
        return c

    def refused(self, n):
        raise AssertionError(f"norm_boundary({n}) materialized")

    monkeypatch.setattr(cyclic, "total_complex", recorded)
    monkeypatch.setattr(CyclicObject, "norm_boundary", refused)
    assert hc_bicomplex(z, 0, 3) == [3, 0, 3, 0]
    assert totals == [[6, 30, 156, 780, 3906]]


def _entries(vectors):
    """Each vector as its (index, scalar type, scalar) entries, in order."""
    return [[(k, type(v), v) for k, v in vec.items()] for vec in vectors]


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["q", "f3"])
@pytest.mark.parametrize("name, coefficients", [
    ("ks3", "ad"), ("h4", "ad"), ("h4", "coad"),
])
def test_lambda_relators_are_the_cyclic_operator_formula(name, coefficients, field):
    """The lambda relators of degrees 0-4 are e_c - (-1)^n tau_n e_c for
    every column c with a nonzero relator, read from the matrix z.cyclic(n):
    entry order and scalar types included."""
    h = _algebra(name, field)
    z = build_cyclic(h, adjoint(h) if coefficients == "ad" else coadjoint(h), 4)
    one = field.one
    for n in range(5):
        got = list(cyclic._coinvariant_relators(z, n))
        neg = -one if n % 2 == 0 else one
        want = []
        for c in range(z.dim(n)):
            col = {k: neg * v for k, v in z.cyclic(n).cols.get(c, {}).items()}
            vec_add_at(col, c, one)
            if col:
                want.append(col)
        assert _entries(got) == _entries(want)


def test_connes_data_holds_no_cyclic_operator_matrix(ks3):
    z = build_cyclic(ks3, adjoint(ks3), 4)
    cyclic.connes_data(z, 4)
    assert z._cyc == {} and z._held == {} and z._appliers == {}
    assert hc_connes(z, 0, 3) == [3, 0, 3, 0]


def _count_matmul(monkeypatch) -> list:
    calls = []
    matmul = SparseMatrix.__matmul__

    def counted(a, b):
        calls.append((a.nrows, a.ncols, b.ncols))
        return matmul(a, b)

    monkeypatch.setattr(SparseMatrix, "__matmul__", counted)
    return calls


def test_total_complex_multiplies_nothing_again(ks3, monkeypatch):
    """total_complex(b, k) is the complex that Bicomplex certified when the
    cells of b reach total degree k + 1 exactly; a shorter one is built and
    checked again."""
    z = build_cyclic(ks3, adjoint(ks3), 4)
    for b in (cyclic.mixed_bicomplex(z, 3), tsygan_bicomplex(z, 3)):
        calls = _count_matmul(monkeypatch)
        tot = total_complex(b, 3)
        assert calls == []
        monkeypatch.undo()
        assert tot.top_degree == 4
        assert homology_dims(tot, 0, 3) == [3, 0, 3, 0]
        calls = _count_matmul(monkeypatch)
        short = total_complex(b, 2)
        assert len(calls) == 2  # d o d at degrees 2 and 3
        monkeypatch.undo()
        assert short.dims == tot.dims[:4]
        assert [short.diff(n) for n in (1, 2, 3)] == [tot.diff(n) for n in (1, 2, 3)]


def test_bicomplex_with_a_nonzero_block_that_no_cell_check_reads():
    """d o d out of cell (1, 1) is v(0, 1) h(1, 1), with no v(1, 1) or
    h(1, 0): no cell check reads it, so the bicomplex is built, and its
    total complex fails its own check, as it did before it was certified
    at construction."""
    one = SparseMatrix.identity(1, QQ)
    cells = {(p, q): 1 for p in range(3) for q in range(3) if p + q <= 2}
    b = linalg.Bicomplex(cells, {(1, 1): one}, {(0, 1): one}, QQ)
    with pytest.raises(LinAlgError, match="^boundary squared is nonzero at degree 2$"):
        total_complex(b, 1)
    assert total_complex(b, 0).dims == [1, 2]


@pytest.mark.parametrize("name", ["ks3", "h4"])
def test_hochschild_holds_no_degeneracy_matrix(name):
    """The normalized relators stream from transient degeneracy columns:
    after hochschild no degeneracy matrix is cached, and every normalized
    quotient keeps the free columns of the degeneracy-matrix stream."""
    h = _algebra(name, QQ)
    z = build_cyclic(h, adjoint(h), 4)
    assert hochschild(z, 0, 3) == ([3, 0, 0, 0] if name == "ks3" else [2, 1, 1, 1])
    assert z._degen == {}
    ref = build_cyclic(h, adjoint(h), 4)
    for n in range(5):
        q = linalg.QuotientSpace(ref.dim(n), QQ, (
            col for i in range(n) for _, col in ref.degen(n - 1, i).columns()))
        assert z._quot["normalized", n].free_cols == q.free_cols


def test_apply_after_hand_over_and_release_reads_fresh_columns(sweedler_h4):
    """apply_* resolves each operator once; that memo goes with the held
    columns, at a ``columns`` hand-over and at ``release``, so no memo
    entry keeps a dropped list alive and the next call builds it anew."""
    h = sweedler_h4
    z = build_cyclic(h, coadjoint(h), 3)
    fresh = build_cyclic(h, coadjoint(h), 3)
    one = QQ.one
    v = {0: one, 5: 2 * one, 17: -one, 40: one}
    cases = [("cyclic", 2, 0, lambda w: z.apply_cyclic(2, w)),
             ("face", 2, 2, lambda w: z.apply_face(2, 2, w))]
    for kind, n, i, apply in cases:
        want = linalg.vec_apply(fresh.columns(kind, n, i).__getitem__, v)
        assert apply(v) == want
        held = z._held[kind, n, i]
        cols = z.columns(kind, n, i)
        assert cols is held and (kind, n, i) not in z._appliers
        del held
        assert sys.getrefcount(cols) == 2
        assert apply(v) == want
        held = z._held[kind, n, i]
        z.release()
        assert sys.getrefcount(held) == 2 and z._appliers == {}
        assert apply(v) == want
    assert z.apply_face(2, 0, v) == _slot_face_by_columns(z, 2, 0, v)


def _slot_face_by_columns(z, n, i, v):
    """The slot face (n, i) applied to v through ``slot_map``, column by column."""
    out: Vec = {}
    for c, x in v.items():
        vec_iadd_scaled(out, slot_map(*z.slots("face", n)[i], c), x)
    return out


def _corrupted(z, kind):
    """z with one evaluator corrupted; the identity suite is not run."""
    face, degen, cyc = z.face_fn, z.degen_fn, z.cyclic_fn
    if kind == "last degeneracy at the front":
        degen = lambda n, i, c: z.degen_fn(n, 0 if i == n else i, c)
    elif kind == "degeneracies reversed":
        degen = lambda n, i, c: z.degen_fn(n, n - i, c)
    elif kind == "cyclic operator negated in odd degrees":
        cyc = lambda n, c: ({k: -v for k, v in z.cyclic_fn(n, c).items()}
                            if n % 2 else z.cyclic_fn(n, c))
    elif kind == "cyclic operator replaced by the identity":
        cyc = lambda n, c: {c: z.field.one}
    elif kind == "rotation applied twice":
        cyc = lambda n, c: z.apply_cyclic(n, z.cyclic_fn(n, c))
    else:  # the inverse rotation, t^n
        def cyc(n, c):
            v = {c: z.field.one}
            for _ in range(n):
                v = z.apply_cyclic(n, v)
            return v
    return per_column(z.field, z.top, z.dim_fn, face, degen, cyc, name=kind)


@pytest.mark.parametrize("algebra, kind, error, match, route", [
    ("kz3", "last degeneracy at the front", WellDefinednessError,
     "boundary at degree 3 on normalized chains", "hc_bicomplex"),
    ("kz3", "degeneracies reversed", LinAlgError, "does not anticommute",
     "hc_bicomplex"),
    ("kz3", "cyclic operator negated in odd degrees", LinAlgError,
     "does not anticommute", "hc_bicomplex"),
    ("kz3", "inverse rotation", LinAlgError, "does not anticommute",
     "hc_bicomplex"),
    ("sweedler_h4", "last degeneracy at the front", WellDefinednessError,
     "boundary at degree 3 on normalized chains", "hc_bicomplex"),
    ("sweedler_h4", "cyclic operator negated in odd degrees", LinAlgError,
     "does not anticommute", "hc_bicomplex"),
    ("sweedler_h4", "inverse rotation", LinAlgError, "does not anticommute",
     "hc_bicomplex"),
    # B^2 = 0, bB + Bb = 0, descent and d o d all pass on these two
    ("sweedler_h4", "cyclic operator replaced by the identity", ValueError,
     r"check 'd_0 t_n = d_n at degree 1' failed \(column 6\)", "hc_bicomplex"),
    ("sweedler_h4", "rotation applied twice", ValueError,
     r"check 'd_0 t_n = d_n at degree 1' failed \(column 6\)", "hc_bicomplex"),
    # Hochschild homology reads the same b-bar on normalized chains
    ("kz3", "last degeneracy at the front", WellDefinednessError,
     "boundary at degree 3 on normalized chains", "hochschild"),
    ("sweedler_h4", "last degeneracy at the front", WellDefinednessError,
     "boundary at degree 3 on normalized chains", "hochschild"),
])
def test_bicomplex_route_refuses_corrupted_operators(algebra, kind, error, match, route,
                                                     request):
    h = request.getfixturevalue(algebra)
    z = _corrupted(build_cyclic(h, adjoint(h), 4), kind)
    with pytest.raises(error, match=match):
        getattr(cyclic, route)(z, 0, 3)


# ---------------------------------------------------------------------------
# the periodicity sequence
# ---------------------------------------------------------------------------


def test_sbi_accepts_genuine_pairs():
    assert sbi_check([2, 0, 0, 0], [2, 0, 2, 0]).ok
    assert sbi_check([1, 0, 0, 0], [1, 0, 1, 0]).ok
    assert sbi_check([3, 0, 0, 0], [3, 0, 3, 0]).ok


def test_sbi_rejects_fabricated_pair():
    rep = sbi_check([2, 1, 2, 0], [2, 0, 2, 0])
    assert not rep.ok
    assert "no feasible rank" in rep.failures[0].witness


def test_sbi_on_computed_dimensions(kz4):
    z = build_cyclic(kz4, adjoint(kz4), 4)
    hh = hochschild(z, 0, 3)
    hcd = hc_connes(z, 0, 3)
    assert sbi_check(hh, hcd).ok


# ---------------------------------------------------------------------------
# folding for cocommutative algebras with trivial coaction
# ---------------------------------------------------------------------------


def test_folding_sign_coefficients_vanish(kz2):
    fc = cocommutative_folding_check(kz2, sign_module(kz2), 0, 4)
    assert fc.report.ok, fc.report.lines()
    assert fc.hc == [0, 0, 0, 0, 0]


def test_folding_trivial_z3(kz3):
    fc = cocommutative_folding_check(kz3, trivial_module(kz3), 0, 3)
    assert fc.report.ok
    assert fc.hc == [1, 0, 1, 0]


def test_folding_klein_four():
    g = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    h = group_algebra(g, QQ)
    fc = cocommutative_folding_check(h, trivial_module(h), 0, 4)
    assert fc.report.ok
    assert fc.hc == [1, 0, 1, 0, 1]


def test_folding_rejects_nontrivial_coaction(kz2):
    with pytest.raises(ValueError, match="trivial coaction"):
        cocommutative_folding_check(kz2, adjoint(kz2), 0, 2)


# ---------------------------------------------------------------------------
# induction invariance
# ---------------------------------------------------------------------------


def test_shapiro_whole_algebra_identity(kz3):
    sub = group_subalgebra(kz3, [0, 1, 2])
    out = shapiro_check(sub, kz3, adjoint(sub.sub), 0, 2)
    assert out.report.ok, out.report.lines()


def test_shapiro_z2_in_z4(kz4):
    sub = group_subalgebra(kz4, [0, 2])
    out = shapiro_check(sub, kz4, adjoint(sub.sub), 0, 3)
    assert out.report.ok, out.report.lines()
    assert out.hh_induced == [2, 0, 0, 0]
    assert out.hc_induced == [2, 0, 2, 0]


def test_shapiro_a3_in_s3(ks3):
    g = ks3.group
    a3 = [i for i in range(6) if g.element_order(i) in (1, 3)]
    sub = group_subalgebra(ks3, a3)
    out = shapiro_check(sub, ks3, trivial_module(sub.sub), 0, 3)
    assert out.report.ok, out.report.lines()
    assert out.hc_induced == [1, 0, 1, 0]


# ---------------------------------------------------------------------------
# collapsing a separable normal subalgebra
# ---------------------------------------------------------------------------


def test_separability_element_exists(kz2, kz3):
    e = separability_element(kz2, [kz2.unit])
    # (1 (x) 1 + g (x) g) / 2
    assert e == {0: QQ.coerce("1/2"), 3: QQ.coerce("1/2")}
    assert separability_element(kz3, [kz3.unit])


def test_separability_fails_in_bad_characteristic():
    h = group_algebra(FiniteGroup.cyclic(2), PrimeField(2))
    with pytest.raises(ValueError, match="separability"):
        separability_element(h, [h.unit])


def test_reduction_s3_mod_a3_trivial(ks3):
    g = ks3.group
    a3 = [i for i in range(6) if g.element_order(i) in (1, 3)]
    sub = group_subalgebra(ks3, a3)
    red = semisimple_reduction(ks3, sub, trivial_module(ks3), 0, 3)
    assert red.report.ok, red.report.lines()
    assert red.reduced_algebra.dim == 2
    assert red.hh_top == [1, 0, 0, 0]
    assert red.hc_top == [1, 0, 1, 0]
    # coaction lands in the subalgebra and the quotient is cocommutative,
    # so the folded form is checked too
    assert red.folded == [1, 0, 1, 0]


def test_reduction_z4_mod_z2_adjoint(kz4):
    sub = group_subalgebra(kz4, [0, 2])
    red = semisimple_reduction(kz4, sub, adjoint(kz4), 0, 3)
    assert red.report.ok, red.report.lines()
    assert red.reduced_module.dim == 4
    assert red.hh_top == [4, 0, 0, 0]


def test_reduction_whole_algebra(kz2):
    sub = group_subalgebra(kz2, [0, 1])
    red = semisimple_reduction(kz2, sub, adjoint(kz2), 0, 3)
    assert red.report.ok
    assert red.reduced_algebra.dim == 1
    # everything is concentrated in degree zero on the reduced side
    assert red.hh_reduced == [red.reduced_module.dim, 0, 0, 0]


def test_reduction_trivial_subalgebra(kz3):
    sub = group_subalgebra(kz3, [0])
    red = semisimple_reduction(kz3, sub, adjoint(kz3), 0, 2)
    assert red.report.ok
    assert red.reduced_algebra.dim == 3
    assert red.hh_top == red.hh_reduced


# ---------------------------------------------------------------------------
# conjugacy-class folding for group algebras
# ---------------------------------------------------------------------------


def test_burghelea_adjoint_z2(kz2):
    out = burghelea_finite(kz2.group, adjoint(kz2), 0, 3)
    assert out.report.ok, out.report.lines()
    assert out.direct == [2, 0, 2, 0]
    assert len(out.per_class) == 2


def test_burghelea_adjoint_z4(kz4):
    out = burghelea_finite(kz4.group, adjoint(kz4), 0, 3)
    assert out.report.ok
    assert out.direct == [4, 0, 4, 0]


def test_burghelea_trivial_module_single_class(kz3):
    out = burghelea_finite(kz3.group, trivial_module(kz3), 0, 3)
    assert out.report.ok
    assert out.direct == [1, 0, 1, 0]
    assert len(out.per_class) == 1


def test_burghelea_restricts_each_component_action_once(ks3, monkeypatch):
    # 11 (component, centralizer element) pairs for ad(kS3): 6 + 2 * 1 + 3;
    # the folding reuses the M_x modules of the group decomposition
    calls = []
    restrict = linalg.Subspace.induced_matrix

    def counted(self, op, what):
        calls.append(what)
        return restrict(self, op, what)

    monkeypatch.setattr(linalg.Subspace, "induced_matrix", counted)
    out = burghelea_finite(ks3.group, adjoint(ks3), 0, 1)
    assert out.report.ok
    assert len(calls) == 11


def test_centralizer_homology_asks_for_each_action_matrix_once():
    conj = conjugacy_data(FiniteGroup.symmetric(3))
    for x in conj.transversal:
        cd = conj.centralizers[x]
        asked = []

        def act_matrix(y):
            asked.append(y)
            return SparseMatrix.identity(1, QQ)

        hom = centralizer_homology(cd, act_matrix, 2, "test")
        assert sorted(asked) == sorted(cd.elements)
        assert hom == group_homology(
            cd.quotient, 1, SparseMatrix(1, cd.quotient.order, QQ,
                                         {i: {0: 1} for i in range(cd.quotient.order)}),
            0, 2,
        )


# ---------------------------------------------------------------------------
# group homology via the bar resolution
# ---------------------------------------------------------------------------


def test_group_homology_trivial_and_sign():
    z2 = FiniteGroup.cyclic(2)
    triv = SparseMatrix(1, 2, QQ, {0: {0: QQ.one}, 1: {0: QQ.one}})
    assert group_homology(z2, 1, triv, 0, 3) == [1, 0, 0, 0]
    sgn = SparseMatrix(1, 2, QQ, {0: {0: QQ.one}, 1: {0: -QQ.one}})
    assert group_homology(z2, 1, sgn, 0, 3) == [0, 0, 0, 0]


def test_bar_oracle_over_prime_fields():
    """Bar signs are field scalars, so the oracle runs in characteristic p:
    over GF(2) every degree of kZ/2 with adjoint coefficients survives."""
    f5, f2 = PrimeField(5), PrimeField(2)
    k3 = group_algebra(FiniteGroup.cyclic(3), f5)
    z = build_cyclic(k3, adjoint(k3), 4)
    assert tor_oracle(k3, adjoint(k3), 0, 3) == hochschild(z, 0, 3) == [3, 0, 0, 0]
    k2 = group_algebra(FiniteGroup.cyclic(2), f2)
    z = build_cyclic(k2, adjoint(k2), 4)
    assert tor_oracle(k2, adjoint(k2), 0, 3) == hochschild(z, 0, 3) == [2, 2, 2, 2]
    triv = SparseMatrix(1, 2, f2, {0: {0: f2.one}, 1: {0: f2.one}})
    assert group_homology(FiniteGroup.cyclic(2), 1, triv, 0, 3, field=f2) == [1, 1, 1, 1]


def test_bar_oracle_of_ks3_adjoint_over_gf3_through_degree_4():
    """Burghelea's sum over the classes of S3 over GF(3): the centralizers
    S3, Z/2 and Z/3 give [1, 0, 0, 1, 1], [1, 0, 0, 0, 0] and
    [1, 1, 1, 1, 1], so Tor^{kS3}(k, ad) = [3, 1, 1, 2, 2]; the bar
    boundary in degree 5 has 46 656 columns."""
    f3 = PrimeField(3)
    h = group_algebra(FiniteGroup.symmetric(3), f3)
    assert tor_oracle(h, adjoint(h), 0, 4) == [3, 1, 1, 2, 2]


def test_group_homology_free_module():
    z3 = FiniteGroup.cyclic(3)
    cols = {}
    for a in range(3):
        for j in range(3):
            cols[a * 3 + j] = {z3.mul(a, j): QQ.one}
    regular = SparseMatrix(3, 9, QQ, cols)
    assert group_homology(z3, 3, regular, 0, 3) == [1, 0, 0, 0]
