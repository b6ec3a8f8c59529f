"""In-memory span tracer that instruments hopfcyclic from outside.

The package itself carries no tracing.  ``instrument`` wraps public
functions and methods of the package modules in place -- module-level
functions in every module namespace that binds them (``cli`` imports
``lambda_iso`` and others by name), methods on their class -- and returns
an undo callable that restores the originals.

Each span is ``[name, start, end, parent index, op id]``.  Spans are kept in
memory; ``self_times`` derives each span's self time (duration minus the
union of its children's intervals).  Count hooks run before and after the
layer call, inside ``trace.count`` spans of their own, so the bookkeeping
cost is charged to the tracer and not to the layer it measures.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

PACKAGE = "hopfcyclic"
OP = "op"  # root span of one CLI call; its self time is the untraced remainder
COUNT = "trace.count"
NO_HOOKS = (None, None)


class Tracer:
    """Spans and per-op counters for one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self.op_labels: dict = {}
        self.op = None
        self._stack: list = []
        self._seen: dict = {}  # operator-cache keys of the current op
        self._keep: list = []  # objects whose id() is part of a key

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def begin_op(self, label: str) -> int:
        """Start a root span for one op; returns its span index."""
        self.op = len(self.op_labels)
        self.op_labels[self.op] = label
        self._seen = {}
        self._keep = []
        return self.begin(OP)

    def end_op(self, idx: int) -> None:
        self.end(idx)
        self.op = None
        self._seen = {}
        self._keep = []

    def add(self, key: str, n: int = 1) -> None:
        self.counts[self.op][key] += n

    def seen_before(self, obj, key) -> bool:
        """True when (obj, key) was already asked for during this op."""
        full = (id(obj), key)
        if full in self._seen:
            return True
        self._seen[full] = True
        self._keep.append(obj)
        return False

    def self_times(self) -> dict:
        """{op id: {span name: total self seconds}}."""
        children = defaultdict(list)
        for idx, span in enumerate(self.spans):
            if span[3] is not None:
                children[span[3]].append(idx)
        out: dict = defaultdict(lambda: defaultdict(float))
        for idx, (name, start, end, _parent, op) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for c in children.get(idx, ()):
                c_start, c_end = self.spans[c][1], self.spans[c][2]
                lo = max(c_start, reach)
                if c_end > lo:
                    covered += c_end - lo
                    reach = c_end
            out[op][name] += (end - start) - covered
        return out

    def op_durations(self) -> dict:
        """{op id: seconds of the op's root span}."""
        return {
            s[4]: s[2] - s[1] for s in self.spans if s[0] == OP and s[3] is None
        }


def _wrap(tracer: Tracer, name: str, fn, hooks=NO_HOOKS):
    prefix = name + "."
    before, after = hooks

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            cidx = tracer.begin(COUNT)
            try:
                args = before(tracer, prefix, args)
            finally:
                tracer.end(cidx)
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        cidx = tracer.begin(COUNT)
        try:
            tracer.add(prefix + "calls")
            if after is not None:
                after(tracer, prefix, args, kwargs, result)
        finally:
            tracer.end(cidx)
        return result

    return traced


# -- count hooks ----------------------------------------------------------
# before(tracer, prefix, args) -> args; after(tracer, prefix, args, kwargs,
# result).  Every count is exact: it must repeat between runs of one code.


def _echelonize_rows(t, p, args):
    rows = list(args[0])  # callers may pass a one-shot iterable
    t.add(p + "rows_in", len(rows))
    t.add(p + "nnz_in", sum(len(r) for r in rows))
    return (rows, *args[1:])


def _echelonize_counts(t, p, args, kwargs, ech):
    t.add(p + "rank", ech.rank)
    t.add(p + "retired_nnz", sum(len(r) for r in ech.rows))


def _reduce_counts(t, p, args, kwargs, vec):
    t.add(p + "pivot_rows", len(args[0].pivots))
    if not vec:
        t.add(p + "zeros")


def _matmul_counts(t, p, args, kwargs, out):
    left, right = args[0].cols, args[1].cols
    mults = 0
    for col in right.values():
        for i in col:
            got = left.get(i)
            if got:
                mults += len(got)
    t.add(p + "mults", mults)
    t.add(p + "nnz_out", out.nnz())


def _operator_counts(kind):
    def hook(t, p, args, kwargs, mat):
        if t.seen_before(args[0], (kind, args[1:])):
            t.add(p + "hits")
        else:
            t.add(p + "cols", mat.ncols)
            t.add(p + "nnz", mat.nnz())

    return hook


def _identity_counts(t, p, args, kwargs, report):
    z = args[0]
    top = args[1] if len(args) > 1 else kwargs.get("max_degree")
    columns = args[2] if len(args) > 2 else kwargs.get("columns")
    top = z.top if top is None else top
    for n in range(top + 1):
        t.add(p + "cols_checked",
              z.dim(n) if columns is None else len(list(columns(n))))
    if columns is not None:
        t.add(p + "sampled")


def _targets(mods: dict) -> list:
    """(owner, attribute, span name, (before, after)) per traced boundary."""
    linalg, cyclic, galois = mods["linalg"], mods["cyclic"], mods["galois"]
    crossed, hopf = mods["crossed"], mods["hopf"]
    out = [
        (linalg, "echelonize", "linalg.echelonize",
         (_echelonize_rows, _echelonize_counts)),
        (linalg.Echelon, "reduce", "linalg.reduce", (None, _reduce_counts)),
        (linalg.SparseMatrix, "__matmul__", "linalg.matmul",
         (None, _matmul_counts)),
        (linalg.QuotientSpace, "induced_matrix", "linalg.induced_matrix",
         NO_HOOKS),
        (linalg.ChainComplex, "__init__", "linalg.chain_check", NO_HOOKS),
        (linalg.Bicomplex, "__init__", "linalg.bicomplex_check", NO_HOOKS),
        (cyclic, "connes_data", "cyclic.connes_data", NO_HOOKS),
        (cyclic, "tsygan_bicomplex", "cyclic.tsygan_bicomplex", NO_HOOKS),
        (cyclic, "bar_complex", "cyclic.bar_complex", NO_HOOKS),
        (cyclic, "build_cyclic", "cyclic.build", NO_HOOKS),
        (cyclic, "verify_cyclic_identities", "cyclic.identities",
         (None, _identity_counts)),
        (galois, "galois_check", "galois.galois_check", NO_HOOKS),
        (galois, "relative_cyclic", "galois.relative_cyclic", NO_HOOKS),
        (galois, "lambda_iso", "galois.lambda_iso", NO_HOOKS),
        (crossed, "verify_crossed", "crossed.verify", NO_HOOKS),
        (crossed, "decompose_group_case", "crossed.decompose", NO_HOOKS),
        (hopf, "group_algebra", "hopf.inputs", NO_HOOKS),
        (hopf.FiniteGroup, "__init__", "hopf.inputs", NO_HOOKS),
    ]
    for kind in ("face", "degen", "cyclic", "boundary", "norm_boundary"):
        out.append((cyclic.CyclicObject, kind, "cyclic.operator",
                    (None, _operator_counts(kind))))
    return out


def instrument(tracer: Tracer):
    """Wrap the package's layer boundaries; returns a callable that undoes it."""
    loaded = {
        name: mod for name, mod in sys.modules.items()
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    }
    mods = {name.rpartition(".")[2]: mod for name, mod in loaded.items()}
    undo = []
    for owner, attr, name, hooks in _targets(mods):
        original = owner.__dict__[attr]
        traced = _wrap(tracer, name, original, hooks)
        if isinstance(owner, type):
            setattr(owner, attr, traced)
            undo.append((owner, attr, original))
            continue
        for mod in loaded.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    undo.append((mod, key, original))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
