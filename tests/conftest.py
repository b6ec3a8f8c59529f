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
from hopfcyclic import hopf
from hopfcyclic.hopf import FiniteGroup, group_algebra
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
    """Sweedler's H_4 over Q (``hopf.sweedler_h4``)."""
    return hopf.sweedler_h4()
