"""Homology of quantum tori by exact lattice combinatorics.

The quantum torus on r invertible generators U_1, ..., U_r has relations
U_i U_j = lambda_ij U_j U_i with lambda_ij = q^(a_ij) for an antisymmetric
integer matrix a.  Its Hochschild and cyclic homology are supported on the
subgroup X = { x in Z^r : a x = 0 mod ord(q) } of degrees with trivial
commutation character: every point of X contributes an exterior algebra on
r generators, so HH_n collects binom(r, n) per point, while HC_n collects
the even fold binom(r, n) + binom(r, n-2) + ... at the origin and
binom(r-1, n) at every other point.

X is computed exactly from the Smith normal form of a (substituting
x = V y turns a x = 0 mod m into d_i y_i = 0 mod m, solved coordinatewise),
and membership through the basis is cross-checkable against brute-force box
enumeration of the congruences.  X is either the origin alone or infinite;
infinite point counts are kept symbolic (`None` totals), never truncated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, gcd

from .linalg import mat_mul_int, smith_normal_form
from .reporting import CheckReport


@dataclass(frozen=True)
class TorusCocycle:
    """Commutation data: rank, antisymmetric exponent matrix, and the
    multiplicative order of q (`None` for infinite order)."""

    r: int
    a: tuple
    q_order: int | None = None

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("rank must be positive")
        rows = tuple(tuple(int(x) for x in row) for row in self.a)
        object.__setattr__(self, "a", rows)
        if len(rows) != self.r or any(len(row) != self.r for row in rows):
            raise ValueError(f"exponent matrix must be {self.r} x {self.r}")
        for i in range(self.r):
            for j in range(self.r):
                if rows[i][j] != -rows[j][i]:
                    raise ValueError(
                        f"exponent matrix is not antisymmetric at ({i}, {j})"
                    )
        if self.q_order is not None and self.q_order < 1:
            raise ValueError("the order of q must be positive")

    def character_vanishes(self, x) -> bool:
        """Whether a x = 0 mod ord(q): the point supports homology."""
        for i in range(self.r):
            s = sum(self.a[i][j] * x[j] for j in range(self.r))
            if (s % self.q_order if self.q_order else s) != 0:
                return False
        return True


class DegreeLattice:
    """A subgroup of Z^r given by generating columns, with exact integer
    membership through the Smith normal form of the generator matrix."""

    def __init__(self, ambient_rank: int, basis):
        self.ambient_rank = ambient_rank
        self.basis = tuple(tuple(int(x) for x in col) for col in basis)
        for col in self.basis:
            if len(col) != ambient_rank:
                raise ValueError("generator has wrong length")
        if self.basis:
            mat = [
                [self.basis[k][i] for k in range(len(self.basis))]
                for i in range(ambient_rank)
            ]
            self._u, d, _ = smith_normal_form(mat)
            self._diag = [
                d[i][i] if i < len(d[0]) else 0 for i in range(ambient_rank)
            ]
        else:
            self._u = None
            self._diag = [0] * ambient_rank

    @property
    def rank(self) -> int:
        return sum(1 for x in self._diag if x) if self.basis else 0

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0

    @property
    def index(self) -> int | None:
        """[Z^r : X] when finite (the product of the invariant factors of
        the generator matrix), else None."""
        if self.rank < self.ambient_rank:
            return None
        out = 1
        for x in self._diag:
            out *= abs(x)
        return out

    def contains(self, x) -> bool:
        x = [int(v) for v in x]
        if len(x) != self.ambient_rank:
            raise ValueError("point has wrong length")
        if not self.basis:
            return all(v == 0 for v in x)
        w = mat_mul_int(self._u, [[v] for v in x])
        for i in range(self.ambient_rank):
            d = self._diag[i]
            if d:
                if w[i][0] % d:
                    return False
            elif w[i][0]:
                return False
        return True


def degree_lattice(tc: TorusCocycle) -> DegreeLattice:
    """Solve a x = 0 mod ord(q) by Smith normal form: with U a V = D and
    x = V y the system becomes d_i y_i = 0 mod m, so y_i ranges over
    multiples of m / gcd(d_i, m) (over 0 or all of Z when m is infinite)."""
    r = tc.r
    _, d, v = smith_normal_form([list(row) for row in tc.a])
    diag = [d[i][i] for i in range(r)]
    cols = []
    for i in range(r):
        if tc.q_order is None:
            # exact equation: y_i free when d_i = 0, zero otherwise
            if diag[i] == 0:
                cols.append(tuple(v[k][i] for k in range(r)))
        else:
            # d_i y_i = 0 mod m: y_i in (m / gcd(d_i, m)) Z, free when d_i = 0
            t = tc.q_order // gcd(diag[i], tc.q_order) if diag[i] else 1
            cols.append(tuple(t * v[k][i] for k in range(r)))
    return DegreeLattice(r, cols)


def box_check(tc: TorusCocycle, bound: int | None = None) -> CheckReport:
    """Compare lattice membership against the raw congruences on every
    integer point of the box [-bound, bound]^r (default twice the order of
    q, or 4 for infinite order)."""
    lat = degree_lattice(tc)
    if bound is None:
        bound = 2 * tc.q_order if tc.q_order else 4
    rep = CheckReport(f"degree-lattice box enumeration, rank {tc.r}")
    mismatch = None
    total = matches = 0
    for x in itertools.product(range(-bound, bound + 1), repeat=tc.r):
        total += 1
        direct = tc.character_vanishes(x)
        if direct == lat.contains(x):
            matches += 1
        elif mismatch is None:
            mismatch = f"point {x}: congruence {direct}, basis {not direct}"
    rep.add(
        f"membership agrees on all {total} points of [-{bound}, {bound}]^{tc.r}",
        matches == total,
        mismatch,
    )
    return rep


@dataclass(frozen=True)
class DegreeCount:
    """One homology degree: the dimension at the origin, the dimension at
    each other lattice point, and how many other points there are (0 for
    the trivial lattice, None for infinitely many)."""

    at_origin: int
    per_other_point: int
    other_points: int | None

    @property
    def total(self) -> int | None:
        if self.per_other_point == 0 or self.other_points == 0:
            return self.at_origin
        if self.other_points is None:
            return None
        return self.at_origin + self.per_other_point * self.other_points


@dataclass
class TorusHomology:
    cocycle: TorusCocycle
    lattice: DegreeLattice
    hh: list
    hc: list

    @property
    def hh_totals(self) -> list:
        return [c.total for c in self.hh]

    @property
    def hc_totals(self) -> list:
        return [c.total for c in self.hc]


def torus_homology(tc: TorusCocycle, low: int = 0, high: int = 4) -> TorusHomology:
    """Degreewise point counts for Hochschild and cyclic homology.

    Per lattice point, HH_n has dimension binom(r, n); HC_n folds the even
    binomials binom(r, n - 2i) at the origin and contributes binom(r-1, n)
    at every other point.
    """
    if low < 0 or high < low:
        raise ValueError("bad degree window")
    lat = degree_lattice(tc)
    others = 0 if lat.is_trivial else None
    r = tc.r
    hh = []
    hc = []
    for n in range(low, high + 1):
        ext = comb(r, n) if n <= r else 0
        hh.append(DegreeCount(ext, ext, others))
        folded = sum(comb(r, n - 2 * i) for i in range(n // 2 + 1) if n - 2 * i <= r)
        ring = comb(r - 1, n) if n <= r - 1 else 0
        hc.append(DegreeCount(folded, ring, others))
    return TorusHomology(tc, lat, hh, hc)
