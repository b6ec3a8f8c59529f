"""Hopf algebra structure tensors, groups, subalgebras and quotients."""

import functools
import itertools
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopfcyclic import crossed, cyclic, galois, hopf
from hopfcyclic.cli import resolve_extension
from hopfcyclic.hopf import (
    AlgebraData,
    FiniteGroup,
    HopfAlgebra,
    TensorIndex,
    algebra_generators,
    balancing_relators,
    conjugacy_data,
    group_algebra,
    group_from_json,
    group_subalgebra,
    group_to_json,
    hopf_from_json,
    hopf_subalgebra,
    hopf_to_json,
    op_cop,
    quotient_by_normal,
    separability_element,
    slot_add,
    slot_apply,
    slot_map,
    verify_hopf,
)
from hopfcyclic.crossed import adjoint
from hopfcyclic.galois import Bimodule, verify_bimodule
from hopfcyclic.linalg import QQ, PrimeField, SparseMatrix, WellDefinednessError, flip_matrix, vec_add_at, vec_iadd_scaled


# -- groups -------------------------------------------------------------------


def test_cyclic_group():
    g = FiniteGroup.cyclic(4)
    assert g.order == 4 and g.identity == 0
    assert g.mul(3, 2) == 1 and g.inv(3) == 1
    assert g.is_abelian()


def test_symmetric_and_dihedral():
    s3 = FiniteGroup.symmetric(3)
    assert s3.order == 6 and not s3.is_abelian()
    d4 = FiniteGroup.dihedral(4)
    assert d4.order == 8 and not d4.is_abelian()
    v4 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    assert v4.order == 4 and all(v4.element_order(x) <= 2 for x in range(4))


def test_bad_table_rejected():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [1, 1]])  # 1*1 = 1 kills inverses/associativity


def test_conjugacy_data_s3():
    s3 = FiniteGroup.symmetric(3)
    data = conjugacy_data(s3)
    sizes = sorted(len(c) for c in data.classes)
    assert sizes == [1, 2, 3]
    for x in data.transversal:
        cd = data.centralizers[x]
        # |class| * |centralizer| = |G|
        cls_size = next(len(c) for c in data.classes if x in c)
        assert cls_size * cd.group.order == s3.order
        assert cd.quotient.order == cd.group.order // s3.element_order(x)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=4), st.data())
def test_tensor_index_round_trip(dims, data):
    ti = TensorIndex(dims)
    idx = data.draw(st.integers(0, ti.size - 1))
    assert ti.flatten(ti.unflatten(idx)) == idx
    # row-major layout: the Horner value over dims, last slot fastest
    tup = tuple(data.draw(st.integers(0, d - 1)) for d in dims)
    horner = 0
    for i, d in zip(tup, dims):
        horner = horner * d + i
    assert ti.flatten(tup) == horner
    assert ti.unflatten(horner) == tup


def _structure_maps(h):
    """(id, tensor, input slot dims, output slot dims, the map on one tuple
    of input indices as [(tuple of output indices, coeff)]) for the counit,
    comultiplication, unit and multiplication of h, read from the scalar
    accessors rather than from the tensors."""
    d = h.dim
    return [
        ("counit", h.counit_matrix(), [d], [],
         lambda t: [((), h.counit_of(t[0]))] if h.counit_of(t[0]) else []),
        ("comult", h.comult, [d], [d, d], lambda t: h.comult_pairs(t[0])),
        ("unit", h.unit_matrix(), [], [d], lambda t: [((u,), c) for u, c in h.unit.items()]),
        ("mult", h.mult, [d, d], [d], lambda t: [((k,), c) for k, c in h.mult_pairs(*t)]),
    ]


def _character_bimodule(ca, group):
    """k_eps + k_sgn over kS3, acted on by eps (x) sgn from the left and
    sgn (x) eps from the right: a bimodule of dimension 2 != dim A."""
    one = ca.field.one
    sign = [-one if group.element_order(i) == 2 else one for i in range(ca.dim)]
    left = {i * 2 + j: {j: sign[i] if j else one} for i in range(ca.dim) for j in range(2)}
    right = {j * ca.dim + i: {j: one if j else sign[i]} for i in range(ca.dim) for j in range(2)}
    return Bimodule(ca, 2, SparseMatrix(2, 2 * ca.dim, ca.field, left),
                    SparseMatrix(2, 2 * ca.dim, ca.field, right), name="k_eps+k_sgn")


SLOT_CASES = [
    f"{label}-{name}" for label in ("ks3_q", "ks3_f5", "h4")
    for name in ("counit", "comult", "unit", "mult")
] + ["ks3_q-adjoint", "s3_over_a3-right", "s3_over_a3-left"]


@pytest.fixture(scope="module")
def slot_cases(sweedler_h4, s3_graded, s3_group):
    cases = {}
    for label, h in [("ks3_q", group_algebra(FiniteGroup.symmetric(3))),
                     ("ks3_f5", group_algebra(FiniteGroup.symmetric(3), PrimeField(5))),
                     ("h4", sweedler_h4)]:
        for name, *rest in _structure_maps(h):
            cases[f"{label}-{name}"] = (h.dim, *rest)
    ks3 = group_algebra(FiniteGroup.symmetric(3))
    m = adjoint(ks3)
    cases["ks3_q-adjoint"] = (ks3.dim, m.action, [ks3.dim, m.dim], [m.dim],
                              lambda t: [((k,), c) for k, c in m.act_pairs(*t)])
    bim = _character_bimodule(s3_graded, s3_group)
    assert verify_bimodule(bim).ok
    one, ad = s3_graded.field.one, s3_graded.dim
    cases["s3_over_a3-right"] = (ad, bim.right, [2, ad], [2], lambda t: [
        ((k,), c) for k, c in bim.right_vec({t[0]: one}, {t[1]: one}).items()])
    cases["s3_over_a3-left"] = (ad, bim.left, [ad, 2], [2], lambda t: [
        ((k,), c) for k, c in bim.left_vec({t[0]: one}, {t[1]: one}).items()])
    return cases


@pytest.mark.parametrize("case", SLOT_CASES)
def test_slot_map_matches_the_tuple_reference(case, slot_cases):
    """slot_map at the stride of every position of the input slots, among
    up to two further slots, equals the map applied to unflattened tuples."""
    d, t, ins, outs, on_tuple = slot_cases[case]
    assert (t.ncols, t.nrows) == (TensorIndex(ins).size, TensorIndex(outs).size)
    k = len(ins)
    for before in range(3):
        for after in range(3 - before):
            src = TensorIndex([d] * before + ins + [d] * after)
            tgt = TensorIndex([d] * before + outs + [d] * after)
            stride = d ** after
            for col in range(src.size):
                tup = src.unflatten(col)
                want = {}
                for u, c in on_tuple(tup[before:before + k]):
                    vec_add_at(want, tgt.flatten(tup[:before] + tuple(u) + tup[before + k:]), c)
                assert slot_map(t, stride, col) == want, (before, after, col)


@pytest.mark.parametrize("case", SLOT_CASES)
def test_slot_add_matches_slot_map_column_by_column(case, slot_cases):
    """slot_add(cols, t, s, c) adds c * slot_map(t, s, col) to every column,
    for c = 1, -1 and 3 (a GF(5) scalar on the ks3_f5 cases), at every
    stride the tuple reference uses.  A third of the columns start as
    -c * slot_map, so they cancel to empty; no zero entry is stored."""
    d, t, ins, outs, _ = slot_cases[case]
    f = t.field
    for c in (f.one, -f.one, f.from_int(3)):
        for before in range(3):
            for after in range(3 - before):
                size = d ** (before + after) * TensorIndex(ins).size
                stride = d ** after
                start = [{0: f.one} if col % 3 == 0 else
                         vec_iadd_scaled({}, slot_map(t, stride, col), -c) if col % 3 == 1 else {}
                         for col in range(size)]
                want = [vec_iadd_scaled(dict(v), slot_map(t, stride, col), c)
                        for col, v in enumerate(start)]
                cols = [dict(v) for v in start]
                slot_add(cols, t, stride, c)
                assert cols == want, (c, before, after)
                assert all(cols[col] == {} for col in range(1, size, 3))
                assert all(v for acc in cols for v in acc.values())


@functools.lru_cache(maxsize=None)
def _kernel_tensors(label: str) -> tuple:
    """(dim, {name: tensor}) for the counit, product, comultiplication and
    unit of kS3 or H4 over Q or GF(5)."""
    name, field = label.split("_")
    field = QQ if field == "q" else PrimeField(5)
    h = hopf.sweedler_h4(field) if name == "h4" else group_algebra(FiniteGroup.symmetric(3), field)
    return h.dim, {"counit": h.counit_matrix(), "mult": h.mult, "comult": h.comult,
                   "unit": h.unit_matrix()}


@st.composite
def slot_vectors(draw):
    """(label, tensor name, slots before, slots after, vector) with small
    coefficients, stored zeros among them (over Q as int or Fraction)."""
    label = draw(st.sampled_from(["ks3_q", "ks3_f5", "h4_q", "h4_f5"]))
    name = draw(st.sampled_from(["counit", "mult", "comult", "unit"]))
    before = draw(st.integers(0, 2))
    after = draw(st.integers(0, 2 - before))
    d, tensors = _kernel_tensors(label)
    t = tensors[name]
    size = d ** (before + after) * t.ncols

    def scalar():
        k = draw(st.integers(-2, 2))
        return Fraction(k) if t.field is QQ and draw(st.booleans()) else t.field.coerce(k)

    return label, name, before, after, {
        col: scalar() for col in draw(st.lists(st.integers(0, size - 1), max_size=8))}


@settings(max_examples=300, deadline=None)
@given(slot_vectors())
# a stored zero coefficient adds nothing, not a zero entry
@example(("ks3_q", "mult", 0, 0, {0: Fraction(0, 1)}))
# eps(e) - eps((12)) cancels to the empty vector
@example(("ks3_q", "counit", 1, 0, {0: 1, 1: -1}))
def test_slot_apply_matches_slot_map_and_slot_add(case):
    """slot_apply(t, s, v) is the sum of v[k] slot_map(t, s, k), entry order
    included, and its columns are the columns slot_add adds, on the
    structure tensors of kS3 and H4 over Q and GF(5) at every stride among
    up to two further slots."""
    label, name, before, after, v = case
    d, tensors = _kernel_tensors(label)
    t, stride = tensors[name], d ** after
    want: dict = {}
    for k, c in v.items():
        vec_iadd_scaled(want, slot_map(t, stride, k), c)
    assert list(slot_apply(t, stride, v).items()) == list(want.items())
    cols = [{} for _ in range(d ** (before + after) * t.ncols)]
    slot_add(cols, t, stride, t.field.one)
    assert all(slot_apply(t, stride, {k: t.field.one}) == col for k, col in enumerate(cols))


# -- Hopf axioms --------------------------------------------------------------


@pytest.mark.parametrize(
    "group",
    [
        FiniteGroup.cyclic(2),
        FiniteGroup.cyclic(3),
        FiniteGroup.cyclic(4),
        FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)),
        FiniteGroup.symmetric(3),
        FiniteGroup.dihedral(4),
    ],
)
def test_group_algebras_satisfy_axioms(group):
    h = group_algebra(group)
    rep = verify_hopf(h)
    assert rep.ok, rep.failures


def test_group_algebra_of_s4_checks_its_axioms_in_bounded_memory():
    """verify_hopf composes (m (x) m)(1 (x) flip (x) 1)(comult (x) comult)
    pair by pair: for kS4 (d = 24) no d^4-column Kronecker product is built,
    which took a 292 MB peak."""
    tracemalloc.start()
    try:
        h = group_algebra(FiniteGroup.symmetric(4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.dim == 24
    assert peak < 32 * 2**20


def test_broken_antipode_reported_with_witness():
    h = group_algebra(FiniteGroup.cyclic(3))
    bad = HopfAlgebra(
        h.field,
        h.basis,
        h.mult,
        h.unit,
        h.comult,
        h.counit,
        SparseMatrix.identity(3, QQ),  # identity is not the antipode of kZ/3
        name="broken",
    )
    rep = verify_hopf(bad)
    assert not rep.ok
    names = {c.name for c in rep.failures}
    assert "left antipode identity" in names
    assert any(c.witness for c in rep.failures)


def test_cocommutativity_detection():
    assert group_algebra(FiniteGroup.cyclic(3)).is_cocommutative()
    assert group_algebra(FiniteGroup.symmetric(3)).is_cocommutative()


def test_grouplike_detection():
    h = group_algebra(FiniteGroup.cyclic(3))
    assert all(h.is_grouplike(i) for i in range(3))


def test_sweedler_group_algebra_is_diagonal():
    h = group_algebra(FiniteGroup.cyclic(3))
    assert h.sweedler(1, 3) == [((1, 1, 1), QQ.one)]


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["q", "f5"])
@pytest.mark.parametrize("name", ["h4", "ks3"])
def test_crossed_legs_match_a_composite_of_the_structure_tensors(name, field):
    # h (x) y -> h_(1) h_(2) h_(3) y -> h_(2) h_(3) y h_(1)
    # -> h_(2) h_(3) y S(h_(1)) -> h_(2) (x) h_(3) y S(h_(1)), with no
    # Sweedler accessor on the way
    h = (hopf.sweedler_h4(field) if name == "h4"
         else group_algebra(FiniteGroup.symmetric(3), field))
    d = h.dim
    idm = SparseMatrix.identity(d, field)
    legs = (h.comult.kron(idm) @ h.comult).kron(idm)
    rotate = flip_matrix(d, d ** 3, field)
    antipode_last = idm.kron(idm).kron(idm).kron(h.antipode)
    multiply = idm.kron(h.mult @ h.mult.kron(idm))
    composite = multiply @ antipode_last @ rotate @ legs
    for i in range(d):
        for j in range(d):
            got = {b * d + p: c for (b, p), c in h.crossed_legs(i, j)}
            assert got == composite.column(i * d + j), (h.basis[i], h.basis[j])


def _balancing_relators_per_entry(tix, junctions):
    """balancing_relators with one vec_add_at per table entry: the
    reference for its precomputed (offset, coefficient) tables."""
    strides = tix.strides
    for idx, t in enumerate(itertools.product(*map(range, tix.dims))):
        for p, ptab, q, qtab in junctions:
            r: dict = {}
            base, s = idx - t[p] * strides[p], strides[p]
            for k, c in ptab[t[p]].items():
                vec_add_at(r, base + k * s, c)
            base, s = idx - t[q] * strides[q], strides[q]
            for k, c in qtab[t[q]].items():
                vec_add_at(r, base + k * s, -c)
            if r:
                yield r


def test_balancing_relators_match_the_per_entry_reference(monkeypatch):
    """Every caller's relator stream -- the relative carriers of the three
    Galois builtins through degree 3, both balanced squares of the Galois
    check, the separability square, induction and the semisimple reduction
    -- is the per-entry reference's, relator and entry order included."""
    calls = []
    for mod in (hopf, galois, crossed, cyclic):
        def recorded(tix, junctions, where=mod.__name__):
            calls.append((where, tix, junctions))
            return balancing_relators(tix, junctions)
        monkeypatch.setattr(mod, "balancing_relators", recorded)
    for ref in ("s3_over_a3", "kz4_over_kz2", "twisted_klein"):
        ca, _ = resolve_extension(ref, QQ)
        galois.galois_check(ca)
        galois.relative_cyclic(ca, galois.coinvariants(ca), None, 3)
    ks3 = group_algebra(FiniteGroup.symmetric(3))
    a3 = group_subalgebra(ks3, [i for i in range(6) if ks3.group.element_order(i) != 2])
    cyclic.semisimple_reduction(ks3, a3, adjoint(ks3), 0, 1)
    kz4 = group_algebra(FiniteGroup.cyclic(4))
    z2 = group_subalgebra(kz4, [0, 2])
    crossed.induce(z2, kz4, adjoint(z2.sub))
    assert {where for where, _, _ in calls} == {
        "hopfcyclic.hopf", "hopfcyclic.galois", "hopfcyclic.crossed", "hopfcyclic.cyclic"}
    for _, tix, junctions in calls:
        want = [list(r.items()) for r in _balancing_relators_per_entry(tix, junctions)]
        assert [list(r.items()) for r in balancing_relators(tix, junctions)] == want


def test_op_cop_of_group_algebra():
    h = group_algebra(FiniteGroup.symmetric(3))
    hoc = op_cop(h)
    # e_i *_op e_j = e_j e_i
    assert hoc.mult_pairs(1, 2) == h.mult_pairs(2, 1)


# -- subalgebras and quotients -------------------------------------------------


def test_quotient_of_z4_by_z2():
    h = group_algebra(FiniteGroup.cyclic(4))
    sub = group_subalgebra(h, [0, 2])
    quot, proj = quotient_by_normal(h, sub)
    assert quot.dim == 2
    assert verify_hopf(quot).ok
    # projection identifies g^2 with 1
    assert proj.column(0) == proj.column(2)


def test_quotient_of_s3_by_a3():
    h = group_algebra(FiniteGroup.symmetric(3))
    g = h.group
    a3 = [i for i in range(6) if g.labels[i] in ("e", "(123)", "(132)")]
    sub = group_subalgebra(h, a3)
    quot, proj = quotient_by_normal(h, sub)
    assert quot.dim == 2


def test_non_normal_subalgebra_rejected():
    h = group_algebra(FiniteGroup.symmetric(3))
    g = h.group
    t = next(i for i in range(6) if g.labels[i] == "(12)")
    sub = group_subalgebra(h, [g.identity, t])
    with pytest.raises(ValueError, match="not normal"):
        quotient_by_normal(h, sub)


@pytest.mark.parametrize("elements, message", [
    ([0, 1, 2], r"not closed: 1 \* 2 = 4 is not among them"),
    ([0, 3], r"not closed: 3 \* 3 = 4 is not among them"),
    ([0, 9], r"element 9 is not in range\(6\)"),
    ([0, -1], r"element -1 is not in range\(6\)"),
    ([0, 1, 2, 3, 4, 5, 5], "element 5 is repeated"),
], ids=["not-closed", "not-closed-order-3", "too-large", "negative", "repeat"])
def test_group_subalgebra_rejects_a_bad_element_list(elements, message):
    ks3 = group_algebra(FiniteGroup.symmetric(3))
    with pytest.raises(ValueError, match=message):
        group_subalgebra(ks3, elements)
    assert group_subalgebra(ks3, range(6)).sub.dim == 6


def test_non_multiplicative_embedding_names_the_first_failing_check():
    # g -> g is a coalgebra map kZ2 -> kZ4 but g^2 = 1 goes to g^2 != 1
    k = group_algebra(FiniteGroup.cyclic(2), name="kZ2")
    h = group_algebra(FiniteGroup.cyclic(4), name="kZ4")
    inc = SparseMatrix(4, 2, QQ, {0: {0: QQ.one}, 1: {1: QQ.one}})
    with pytest.raises(ValueError) as err:
        hopf_subalgebra(h, k, inc)
    assert str(err.value) == "embedding kZ2 in kZ4: check 'multiplicative' failed ((g,g))"


def test_balancing_relators_are_the_columns_of_the_balancing_map():
    # b = 1 + (12) in kS3; R_b and L_b multiply by b on the right and left
    h = group_algebra(FiniteGroup.symmetric(3))
    d = h.dim
    eye = SparseMatrix.identity(d, QQ)
    b = SparseMatrix(d, 1, QQ, {0: {h.basis.index("e"): QQ.one,
                                    h.basis.index("(12)"): QQ.one}})
    left_b, right_b = h.mult @ b.kron(eye), h.mult @ eye.kron(b)
    ltab = [left_b.column(j) for j in range(d)]
    rtab = [right_b.column(j) for j in range(d)]

    def nonzero_columns(m: SparseMatrix) -> list:
        return [m.column(j) for j in range(m.ncols) if m.column(j)]

    # an inner junction: x b (x) y - x (x) b y
    inner = right_b.kron(eye) - eye.kron(left_b)
    got = list(balancing_relators(TensorIndex([d, d]), [(0, rtab, 1, ltab)]))
    assert got == nonzero_columns(inner)
    # two junctions: tuple by tuple, each tuple's relators in junction order
    cyclic = left_b.kron(eye) - eye.kron(right_b)
    got = list(balancing_relators(TensorIndex([d, d]), [(0, rtab, 1, ltab), (0, ltab, 1, rtab)]))
    assert got == [col for j in range(d * d)
                   for col in (inner.column(j), cyclic.column(j)) if col]
    # the outer legs: b x (x) y (x) z - x (x) y (x) z b
    got = list(balancing_relators(TensorIndex([d, d, d]), [(0, ltab, 2, rtab)]))
    assert got == nonzero_columns(left_b.kron(eye).kron(eye) - eye.kron(eye).kron(right_b))
    # one slot: b x - x b
    got = list(balancing_relators(TensorIndex([d]), [(0, ltab, 0, rtab)]))
    assert got == nonzero_columns(left_b - right_b)


def _group_vectors(g: FiniteGroup, labels) -> list:
    return [{g.labels.index(x): QQ.one} for x in labels]


def test_algebra_generators_of_subgroup_algebras():
    # kA3 is generated by one 3-cycle; the Klein group {r0, r2, s0, s2} in
    # D4 needs two generators, and the third non-unit element is their product
    s3 = FiniteGroup.symmetric(3)
    a3 = [{x: QQ.one} for x in range(6) if s3.element_order(x) != 2]
    gens = algebra_generators(group_algebra(s3), a3)
    assert gens == a3[1:2]
    d4 = FiniteGroup.dihedral(4)
    gens = algebra_generators(group_algebra(d4), _group_vectors(d4, ["r0", "r2", "s0", "s2"]))
    assert gens == _group_vectors(d4, ["r2", "s0"])


def test_algebra_generators_of_orthogonal_idempotents():
    # k x k on the idempotents e1, e2 with e1 + e2 = 1: e2 = 1 - e1 is skipped
    mult = SparseMatrix(2, 4, QQ, {0: {0: QQ.one}, 3: {1: QQ.one}})
    a = AlgebraData(QQ, ("e1", "e2"), mult, {0: QQ.one, 1: QQ.one}, name="kxk")
    assert algebra_generators(a, [{0: QQ.one}, {1: QQ.one}]) == [{0: QQ.one}]


def test_algebra_generators_certify_closure():
    # span{1, g} in kZ4 generates all of kZ4
    kz4 = group_algebra(FiniteGroup.cyclic(4))
    with pytest.raises(ValueError, match="^span1g is not closed under multiplication"):
        algebra_generators(kz4, [{0: QQ.one}, {1: QQ.one}], name="span1g")


@pytest.mark.parametrize("group", [FiniteGroup.symmetric(3), FiniteGroup.dihedral(4)],
                         ids=["s3", "d4"])
def test_separability_element_of_a_noncommutative_group_algebra(group):
    h = group_algebra(group)
    d = h.dim
    e = separability_element(h, [h.unit])
    eye = SparseMatrix.identity(d, QQ)
    assert h.mult.apply(e) == h.unit
    for x in range(d):
        x_col = SparseMatrix(d, 1, QQ, {0: {x: QQ.one}})
        left_x = h.mult @ x_col.kron(eye)  # a -> x a
        right_x = h.mult @ eye.kron(x_col)  # b -> b x
        assert left_x.kron(eye).apply(e) == eye.kron(right_x).apply(e)


def test_separability_element_checks_that_the_constraints_descend():
    # basis 1, x, y with x x = 1, y x = x and the other products zero:
    # (y x) x = 1 but y (x x) = y, so over the span of 1 and x the centrality
    # constraints do not preserve the balancing relators
    cols = {0: {0: 1}, 1: {1: 1}, 2: {2: 1}, 3: {1: 1}, 4: {0: 1}, 6: {2: 1}, 7: {1: 1}}
    b = AlgebraData(QQ, ["1", "x", "y"], SparseMatrix(3, 9, QQ, cols), {0: 1}, name="N")
    with pytest.raises(WellDefinednessError, match="centrality constraint"):
        separability_element(b, [{0: 1}, {1: 1}])


# -- JSON ----------------------------------------------------------------------


def test_hopf_json_round_trip():
    h = group_algebra(FiniteGroup.dihedral(4))
    doc = hopf_to_json(h)
    h2 = hopf_from_json(doc)
    assert h2.mult == h.mult
    assert h2.comult == h.comult
    assert h2.antipode == h.antipode
    assert h2.unit == h.unit and h2.counit == h.counit


def test_group_json_round_trip():
    g = FiniteGroup.symmetric(3)
    g2 = group_from_json(group_to_json(g))
    assert g2.table == g.table and g2.labels == g.labels


def test_fractional_coefficients_accepted():
    doc = hopf_to_json(group_algebra(FiniteGroup.cyclic(2)))
    doc["mult"][0][3] = "1/1"
    h = hopf_from_json(doc)
    assert h.mult.entry(0, 0) == Fraction(1)
