#!/usr/bin/env python3
"""Survey adjoint cyclic homology across small group algebras.

For each group the direct cyclic dimensions are computed on the lambda
complex, cross-checked against Connes' (b, B) bicomplex on normalized
chains, and compared with the conjugacy-class count (the expected pattern
is (c, 0, c, 0, ...)); the centralizer folding is re-derived from group
homology as a second, fully independent route.
"""

import argparse
import time
from dataclasses import dataclass, field

from hopfcyclic.crossed import adjoint
from hopfcyclic.cyclic import build_cyclic, burghelea_finite, hc, hochschild
from hopfcyclic.hopf import FiniteGroup, conjugacy_data, group_algebra


@dataclass
class SurveyConfig:
    max_degree: int = 3
    groups: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.groups:
            self.groups = {
                "Z2": FiniteGroup.cyclic(2),
                "Z3": FiniteGroup.cyclic(3),
                "Z4": FiniteGroup.cyclic(4),
                "Z5": FiniteGroup.cyclic(5),
                "Z6": FiniteGroup.cyclic(6),
                "Z2xZ2": FiniteGroup.direct_product(
                    FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)
                ),
                "S3": FiniteGroup.symmetric(3),
            }


def survey(cfg: SurveyConfig) -> None:
    n = cfg.max_degree
    header = f"{'group':>8} {'classes':>8} {'HH':>16} {'HC':>16} {'folded':>16} {'s':>6}"
    print(header)
    print("-" * len(header))
    for name, g in cfg.groups.items():
        t0 = time.monotonic()
        h = group_algebra(g, name=f"k[{name}]")
        m = adjoint(h)
        z = build_cyclic(h, m, n + 1)
        hh = hochschild(z, 0, n)
        hcd = hc(z, 0, n, method="both")
        fold = burghelea_finite(g, m, 0, n)
        fold.report.require(name)
        c = len(conjugacy_data(g).classes)
        expect = [c if k % 2 == 0 else 0 for k in range(n + 1)]
        dt = time.monotonic() - t0
        print(
            f"{name:>8} {c:>8} {str(hh):>16} {str(hcd):>16} "
            f"{str(fold.folded):>16} {dt:>6.2f}"
        )
        assert hcd == expect, f"{name}: {hcd} != {expect}"
    print("\nall groups match the (c, 0, c, 0, ...) class-count pattern")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-degree", type=int, default=3)
    args = ap.parse_args()
    survey(SurveyConfig(max_degree=args.max_degree))


if __name__ == "__main__":
    main()
