"""Session-scoped fixtures for the expensive shared objects.

The parity-graded kS_3 extension and its slot-product comparison are used
by several test modules; building them once keeps the suite fast without
weakening any check.  Sweedler's H_4 is the non-cocommutative input: its
counit vanishes on x and gx, where every group algebra's counit is 1.
"""

import pytest

from hopfcyclic.galois import (
    galois_check,
    lambda_iso,
    strongly_graded,
    twisted_group_algebra,
)
from hopfcyclic.hopf import FiniteGroup, group_algebra, hopf_from_json
from hopfcyclic.linalg import QQ


@pytest.fixture(scope="session")
def s3_group():
    return FiniteGroup.symmetric(3)


@pytest.fixture(scope="session")
def s3_graded(s3_group):
    """kS_3 graded by parity over Z/2: even permutations in degree 0."""
    alg = group_algebra(s3_group, QQ)
    evens = [i for i in range(6) if s3_group.element_order(i) != 2]
    odds = [i for i in range(6) if s3_group.element_order(i) == 2]
    return strongly_graded(
        FiniteGroup.cyclic(2), alg, {0: evens, 1: odds}, name="kS3"
    )


@pytest.fixture(scope="session")
def s3_galois(s3_graded):
    return galois_check(s3_graded)


@pytest.fixture(scope="session")
def s3_lambda(s3_galois):
    return lambda_iso(s3_galois, max_degree=3)


@pytest.fixture(scope="session")
def klein_twisted():
    """The Klein four-group twisted by omega(x, y) = (-1)^(x2 y1); the
    result is a 4-dimensional central simple algebra."""
    v4 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    omega = {
        (x, y): QQ.coerce((-1) ** ((x % 2) * (y // 2)))
        for x in range(4)
        for y in range(4)
    }
    return twisted_group_algebra(v4, omega, name="kV4_tw")


@pytest.fixture(scope="session")
def sweedler_h4():
    """Sweedler's four-dimensional Hopf algebra on the basis 1, g, x, gx:
    g^2 = 1, x^2 = 0, xg = -gx, comult(x) = x (x) 1 + g (x) x, S(x) = -gx
    (so S(gx) = x and S^2 != id)."""
    doc = {
        "dim": 4,
        "basis": ["1", "g", "x", "gx"],
        "mult": [
            [0, 0, 0, 1], [0, 1, 1, 1], [0, 2, 2, 1], [0, 3, 3, 1],
            [1, 0, 1, 1], [2, 0, 2, 1], [3, 0, 3, 1],
            [1, 1, 0, 1], [1, 2, 3, 1], [1, 3, 2, 1],
            [2, 1, 3, -1], [3, 1, 2, -1],
        ],
        "comult": [
            [0, 0, 0, 1], [1, 1, 1, 1],
            [2, 2, 0, 1], [2, 1, 2, 1],
            [3, 3, 1, 1], [3, 0, 3, 1],
        ],
        "unit": [1, 0, 0, 0],
        "counit": [1, 1, 0, 0],
        "antipode": [[0, 0, 1], [1, 1, 1], [3, 2, -1], [2, 3, 1]],
    }
    return hopf_from_json(doc, name="H4")
