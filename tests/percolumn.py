"""A cyclic object given one column at a time: the per-column reference.

``per_column`` declares no slot, so every face, degeneracy and cyclic
operator of the object it builds, whole or per column, comes from the
functions it is given.  Tests corrupt one column of an operator this way,
or rebuild an object from another's evaluators to check its batched
boundaries against plain per-column sums.
"""

from hopfcyclic.cyclic import CyclicObject
from hopfcyclic.linalg import vec_iadd_scaled


def per_column(field, top, dim_fn, face, degen, cyc, name=""):
    """The object with face(n, i, col), degen(n, i, col) and cyc(n, col)
    as its operators, column by column; cyc None makes it simplicial
    only."""

    def add(cols, kind, n, i, c):
        for col, acc in enumerate(cols):
            v = (face(n, i, col) if kind == "face" else degen(n, i, col)
                 if kind == "degen" else cyc(n, col))
            vec_iadd_scaled(acc, v, c)

    return CyclicObject(field, top, dim_fn, lambda kind, n: (), add,
                        name=name, cyclic=cyc is not None)
