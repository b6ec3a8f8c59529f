"""Command-line front end: parse structure documents, dispatch the exact
computations, and emit verification certificates and homology tables.

Subcommands
-----------
verify    axiom suites: ``verify hopf DOC``, ``verify crossed DOC``,
          ``verify cyclic H M``, ``verify galois DOC``
hh / hc   Hochschild / cyclic homology of a Hopf algebra with crossed
          coefficients: ``hh H M``, ``hc H M --method both``
galois    certify a Hopf-Galois extension and the slot-product comparison,
          with cyclic homology computed on both sides
burghelea conjugacy-class folding for a finite group algebra against the
          direct computation
qtorus    quantum-torus degree lattice and homology point counts

Inputs are builtin names (groups ``z2 z3 z4 z2xz2 s3 d4``, Sweedler's
Hopf algebra ``h4``, modules
``adjoint coadjoint trivial sign modular_pair:<g>``, extensions
``s3_over_a3 kz4_over_kz2 twisted_klein``), file paths, or inline JSON.
Reports carry ``schema`` 2, the ``config`` keys ``max_degree``, ``field`` and
``method``, sha256 hashes of every input, one entry per check with a witness
on failure, and the homology tables; timings live in a segregated block so
the rest of the report is byte-stable for fixed input and configuration.
Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 input or
configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from .crossed import (
    adjoint,
    coadjoint,
    crossed_from_json,
    crossed_to_json,
    modular_pair_module,
    one_dimensional,
    trivial_module,
    verify_modular,
)
from .cyclic import (
    CharacteristicError,
    build_cyclic,
    burghelea_finite,
    hc,
    hc_bicomplex,
    hc_connes,
    hochschild,
    verify_cyclic_identities,
)
from .galois import (
    AlgebraData,
    crossed_product,
    galois_check,
    grading_degrees,
    lambda_iso,
    strongly_graded,
    twisted_group_algebra,
    verify_comodule_algebra,
)
from .hopf import (
    FiniteGroup,
    group_algebra,
    group_from_json,
    group_to_json,
    hopf_from_json,
    hopf_to_json,
    sweedler_h4,
    verify_hopf,
)
from .linalg import QQ, PrimeField, ScalarError, SparseMatrix, TruncationError, vec_add_at
from .qtorus import TorusCocycle, box_check, torus_homology
from .reporting import CheckReport


class InputError(Exception):
    """A problem with the input documents or the configuration."""


# ---------------------------------------------------------------------------
# resolvers
# ---------------------------------------------------------------------------

_GROUP_BUILDERS = {
    "z2": lambda: FiniteGroup.cyclic(2),
    "z3": lambda: FiniteGroup.cyclic(3),
    "z4": lambda: FiniteGroup.cyclic(4),
    "z2xz2": lambda: FiniteGroup.direct_product(
        FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)
    ),
    "s3": lambda: FiniteGroup.symmetric(3),
    "d4": lambda: FiniteGroup.dihedral(4),
}

# Hopf algebras that are not group algebras, built over the given field
_HOPF_BUILDERS = {"h4": sweedler_h4}


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def _ref_label(ref) -> str:
    """A document's name in messages: <inline>, <embedded> or the path."""
    if not isinstance(ref, str):
        return "<embedded>"
    return "<inline>" if ref.lstrip().startswith(("{", "[")) else ref


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _load_object(ref, what: str) -> dict:
    """A document given as a file path, inline JSON or an already-parsed
    value, which must be a JSON object; parse errors keep their location."""
    doc = ref
    if isinstance(ref, str):
        text = ref
        if not ref.lstrip().startswith(("{", "[")):
            path = Path(ref)
            if not path.is_file():
                raise InputError(f"no such file or builtin: {ref}")
            text = path.read_text()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(
                f"cannot parse {ref if text is not ref else 'inline document'}: "
                f"{exc.msg} at line {exc.lineno}, column {exc.colno}"
            ) from exc
    if not isinstance(doc, dict):
        raise InputError(f"{what} document {_ref_label(ref)} is not a JSON object")
    return doc


def resolve_field(spec: str):
    if spec == "q":
        return QQ
    tail = spec[1:]
    if spec.startswith("f") and tail.isascii() and tail.isdigit() and tail[0] != "0":
        if len(tail) > 10:  # at least 2^31, and int() would refuse 4300 digits
            raise InputError("prime fields need p < 2^31")
        try:
            return PrimeField(int(tail))
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    raise InputError(f"unknown field {spec!r}: use q or f<prime>")


# Every document the command line reads, as rows (field, required, shape)
# per kind.  `required` is True, False, or the name of a list field whose
# length stands in for the field when it is left out.  A shape is
# (tag, bounds, *args): `_SHAPES[tag]` says which values it admits, and
# `_walk` descends into "object", "keyed" and "entries" values.  A bound is
# a field walked earlier (its value, or its length for a list) or "dim H",
# "dim A", "dim B" or "|G|" of a resolved reference.  A row whose bounds are
# not known yet is skipped, so a document with references ("ref") is walked
# once before they are resolved and once after.
_NAT, _STR, _REF = ("nat", ()), ("str", ()), ("ref", ())
_D = ("dim",)
_BASIS, _NAME = ("basis", False, ("labels", _D)), ("name", False, _STR)
_SCHEMA = {
    "hopf": [
        ("dim", True, _NAT), _BASIS, _NAME,
        ("mult", True, ("entries", _D * 3)), ("comult", True, ("entries", _D * 3)),
        ("unit", True, ("scalars", _D)), ("counit", True, ("scalars", _D)),
        ("antipode", True, ("entries", _D * 2)),
    ],
    "algebra": [
        ("dim", "basis", _NAT), _BASIS, _NAME,
        ("mult", True, ("entries", _D * 3)), ("unit", True, ("scalars", _D)),
    ],
    # action [i, j, k, c]: e_i . m_j contains c m_k;
    # coaction [j, k, i, c]: rho(m_j) contains c m_k (x) e_i
    "module": [
        ("dim", True, _NAT), _BASIS, _NAME,
        ("action", True, ("entries", ("dim H", "dim", "dim"))),
        ("coaction", True, ("entries", ("dim", "dim", "dim H"))),
    ],
    "crossed": [("base", True, _REF)],  # resolve_module walks the rest
    "group": [("table", True, ("table", ())),
              ("elements", False, ("labels", ("table",)))],
    "grading extension": [("algebra", True, _REF),
                          ("grading", True, ("object", (), "grading"))],
    "grading": [
        ("group", True, _REF),
        ("blocks", True, ("keyed", ("|G|", "dim A"), 1, "block",
                          ("indices", ("dim A",)))),
    ],
    "crossed-product extension": [
        ("crossed_product", True, ("object", (), "crossed product")), _NAME,
    ],
    "crossed product": [
        ("base", True, _REF), ("group", True, _REF),
        ("action", False, ("keyed", ("|G|", "dim B"), 1, "action",
                           ("entries", ("dim B", "dim B")))),
        ("cocycle", False, ("keyed", ("|G|", "dim B"), 2, "cocycle",
                            ("entries", ("dim B",)))),
    ],
    "torus": [("r", True, ("pos", ())), ("a", True, ("matrix", ("r",))),
              ("q_order", False, ("order", ()))],
}


def _integer(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _below(x, bound: int) -> bool:
    return _integer(x) and 0 <= x < bound


# tag: (whether value v fits the bounds n, the message when it does not)
_SHAPES = {
    "nat": (lambda v, n: _integer(v) and v >= 0,
            "{name} must be a non-negative integer, not {v!r}"),
    "pos": (lambda v, n: _integer(v) and v > 0,
            "{name} must be a positive integer, not {v!r}"),
    "order": (lambda v, n: v in (None, "infinite") or _integer(v) and v > 0,
              '{name} must be a positive integer, "infinite" or null, not {v!r}'),
    "str": (lambda v, n: isinstance(v, str), "{name} must be a string, not {v!r}"),
    "labels": (lambda v, n: v is None or isinstance(v, list) and len(v) == n[0]
               and all(isinstance(x, str) for x in v),
               "{name} must be a list of {n[0]} strings"),
    "scalars": (lambda v, n: isinstance(v, list) and len(v) == n[0],
                "{name} must be a list of {n[0]} scalars"),
    "entries": (lambda v, n: isinstance(v, list), "{name} must be a list"),
    "indices": (lambda v, n: isinstance(v, list) and all(_below(i, n[0]) for i in v),
                "{name} is not a list of basis indices below {n[0]}"),
    "table": (lambda v, n: isinstance(v, list) and all(
        isinstance(row, list) and len(row) == len(v)
        and all(_below(x, len(v)) for x in row) for row in v),
        "{name} must be n lists of n element indices below n"),
    "matrix": (lambda v, n: isinstance(v, list) and len(v) == n[0] and all(
        isinstance(row, list) and len(row) == n[0] and all(map(_integer, row))
        for row in v), "{name} must be a {n[0]} x {n[0]} matrix of integers"),
    "object": (lambda v, n: isinstance(v, dict), "{name!r} must be a JSON object"),
    "keyed": (lambda v, n: isinstance(v, dict), "{name!r} must be a JSON object"),
    "ref": (lambda v, n: True, ""),
}


def _check(doc: dict, kind: str, what: str, bounds: dict | None = None) -> dict:
    """Walk `doc` against the rows of `_SCHEMA[kind]` and return the bounds
    it gives; the first fault is an InputError naming `what`.  The document
    is only read."""
    bounds = dict(bounds or {})
    for key, required, shape in _SCHEMA[kind]:
        if key not in doc:
            if isinstance(required, str) and isinstance(doc.get(required), list):
                bounds[key] = len(doc[required])
            elif required:
                raise InputError(f"{what} is missing field {key!r}")
        elif all(b in bounds for b in shape[1]):
            _walk(doc[key], shape, what, key, bounds)
            bounds[key] = len(doc[key]) if isinstance(doc[key], list) else doc[key]
    return bounds


def _walk(val, shape, what: str, name: str, bounds: dict) -> None:
    """Check one value against a shape.  An "object" holds the rows of the
    kind in its args; a "keyed" object maps keys of one group element index
    ("x") or two ("x,y") to values, named by a noun, of an inner shape;
    "entries" is a list of [index, ..., scalar], one index below each bound."""
    tag, over, *args = shape
    n = [bounds[b] for b in over]
    fits, message = _SHAPES[tag]
    if not fits(val, n):
        raise InputError(f"{what}: " + message.format(name=name, v=val, n=n))
    if tag == "object":
        _check(val, args[0], what, bounds)
    elif tag == "keyed":
        arity, noun, inner = args
        seen: dict = {}
        for key, item in val.items():
            parts = key.split(",") if arity == 2 else [key]
            if len(parts) != arity:
                raise InputError(f"{what}: {noun} key {key!r} is not 'x,y'")
            for part in map(str.strip, parts):
                if not (part.isdecimal() and int(part) < n[0]):
                    raise InputError(
                        f"{what}: {part!r} is not a group element index below {n[0]}"
                    )
            first = seen.setdefault(tuple(map(int, parts)), key)
            if first != key:
                raise InputError(
                    f"{what}: {noun} keys {first!r} and {key!r} name the same "
                    + ("pair of group elements" if arity == 2 else "group element")
                )
            _walk(item, inner, what, f"{noun} {key!r}", bounds)
    elif tag == "entries":
        for e in val:
            if not (isinstance(e, list) and len(e) == len(n) + 1
                    and all(map(_below, e, n))):
                raise InputError(
                    f"{what}: {name} entry {e!r} is not "
                    f"[{'index, ' * len(n)}scalar] with indices below {n}"
                )


def resolve_group(ref):
    """Returns (group, canonical document).  `ref` may be a builtin name,
    a path, inline JSON, or an already-parsed document."""
    if isinstance(ref, str):
        build = _GROUP_BUILDERS.get(ref)
        if build is not None:
            g = build()
            return g, group_to_json(g)
    doc = _load_object(ref, "group")
    _check(doc, "group", f"group document {_ref_label(ref)}")
    try:
        return group_from_json(doc), doc
    except ValueError as exc:
        raise InputError(f"bad group document: {exc}") from exc


def resolve_hopf(ref, field):
    """Returns (hopf algebra, canonical document).  Construction failures
    of explicit documents are mathematical failures, not input errors."""
    if isinstance(ref, str) and ref in _GROUP_BUILDERS:
        h = group_algebra(_GROUP_BUILDERS[ref](), field, name=f"k[{ref}]")
        return h, hopf_to_json(h)
    if isinstance(ref, str) and ref in _HOPF_BUILDERS:
        h = _HOPF_BUILDERS[ref](field)
        return h, hopf_to_json(h)
    label = _ref_label(ref)
    doc = _load_object(ref, "hopf")
    _check(doc, "hopf", f"hopf document {label}")
    return hopf_from_json(doc, field, name=doc.get("name", label)), doc


def resolve_algebra(ref, field):
    """An algebra to be graded: a Hopf builtin/document (a Hopf algebra is
    an algebra), or a bare {dim, basis, mult, unit} document."""
    if isinstance(ref, str) and (ref in _GROUP_BUILDERS or ref in _HOPF_BUILDERS):
        return resolve_hopf(ref, field)[0]
    doc = _load_object(ref, "algebra")
    if "comult" in doc:
        return resolve_hopf(ref, field)[0]
    d = _check(doc, "algebra", "algebra document")["dim"]
    basis = doc.get("basis") or [f"e{i}" for i in range(d)]
    mult = SparseMatrix.from_entries(
        d, d * d, field, ((k, i * d + j, c) for i, j, k, c in doc["mult"])
    )
    unit = {i: field.coerce(c) for i, c in enumerate(doc["unit"]) if field.coerce(c)}
    return AlgebraData(field, basis, mult, unit, name=doc.get("name", "A"))


def _sign_character(g: FiniteGroup, field):
    """The unique nontrivial {1,-1}-valued character, when it exists.  Every
    such character kills the subgroup N generated by the squares, and G/N
    is an elementary abelian 2-group, so there is exactly one when
    [G : N] = 2: +1 on N and -1 off it."""
    squares = {g.mul(x, x) for x in range(g.order)}
    n, todo = {g.identity}, [g.identity]
    while todo:
        x = todo.pop()
        for y in {g.mul(x, s) for s in squares} - n:
            n.add(y)
            todo.append(y)
    if len(n) == g.order:
        raise InputError("the group has no sign character")
    if 2 * len(n) < g.order:
        raise InputError(
            "the sign character is ambiguous for this group; "
            "provide the module as a document"
        )
    return {i: field.coerce(1 if i in n else -1) for i in range(g.order)}


def resolve_module(ref: str, h):
    """Returns (crossed module, canonical document)."""
    if ref == "adjoint":
        m = adjoint(h)
    elif ref == "coadjoint":
        m = coadjoint(h)
    elif ref == "trivial":
        try:
            m = trivial_module(h)
        except ValueError as exc:  # crossed exactly when S^2 = id
            raise InputError(f"the trivial module is not crossed over {h.name}: "
                             "it needs S^2 = id") from exc
    elif ref == "sign":
        g = getattr(h, "group", None)
        if g is None:
            raise InputError("the sign module needs a group algebra")
        m = one_dimensional(h, _sign_character(g, h.field), name="k_sign")
    elif ref.startswith("modular_pair:"):
        label = ref.split(":", 1)[1]
        if label in h.basis:
            sigma = h.basis.index(label)
        elif label.isdigit() and int(label) < h.dim:
            sigma = int(label)
        else:
            raise InputError(f"no basis element {label!r} in {h.name}")
        try:
            m, _ = modular_pair_module(h, sigma)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    else:
        doc = _load_object(ref, "module")
        _check(doc, "module", f"module document {_ref_label(ref)}", {"dim H": h.dim})
        return crossed_from_json(h, doc), doc
    return m, crossed_to_json(m)


def resolve_extension(ref: str, field):
    """Returns (comodule algebra, canonical document) for the galois
    subcommand: a builtin alias, a grading document, or a crossed-product
    document."""
    if ref == "s3_over_a3":
        s3 = FiniteGroup.symmetric(3)
        blocks = {
            0: [i for i in range(6) if s3.element_order(i) != 2],
            1: [i for i in range(6) if s3.element_order(i) == 2],
        }
        alg = group_algebra(s3, field, name="kS3")
        ca = strongly_graded(FiniteGroup.cyclic(2), alg, blocks, name="kS3")
        doc = {"algebra": "s3", "grading": {"group": "z2", "blocks": blocks}}
        return ca, doc
    if ref == "kz4_over_kz2":
        alg = group_algebra(FiniteGroup.cyclic(4), field, name="kZ4")
        blocks = {0: [0, 2], 1: [1, 3]}
        ca = strongly_graded(FiniteGroup.cyclic(2), alg, blocks, name="kZ4")
        doc = {"algebra": "z4", "grading": {"group": "z2", "blocks": blocks}}
        return ca, doc
    if ref == "twisted_klein":
        v4 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
        omega = {
            (x, y): field.coerce((-1) ** ((x % 2) * (y // 2)))
            for x in range(4)
            for y in range(4)
        }
        ca = twisted_group_algebra(v4, omega, field=field, name="kV4_tw")
        doc = {
            "crossed_product": {
                "base": "k",
                "group": "z2xz2",
                "cocycle": {f"{x},{y}": [[0, (-1) ** ((x % 2) * (y // 2))]]
                            for x in range(4) for y in range(4)},
            }
        }
        return ca, doc
    doc = _load_object(ref, "extension")
    what = f"extension document {_ref_label(ref)}"
    if "grading" in doc:
        _check(doc, "grading extension", what)
        grading = doc["grading"]
        alg = resolve_algebra(doc["algebra"], field)
        g, _ = resolve_group(grading["group"])
        _check(doc, "grading extension", what, {"dim A": alg.dim, "|G|": g.order})
        blocks = {int(key): idxs for key, idxs in grading["blocks"].items()}
        try:
            grading_degrees(g, alg.dim, blocks)
        except ValueError as exc:
            raise InputError(f"{what}: {exc}") from exc
        return strongly_graded(g, alg, blocks, name=alg.name), doc
    if "crossed_product" in doc:
        _check(doc, "crossed-product extension", what)
        spec = doc["crossed_product"]
        g, _ = resolve_group(spec["group"])
        if spec["base"] == "k":
            one = SparseMatrix(1, 1, field, {0: {0: field.one}})
            base = AlgebraData(field, ("1",), one, {0: field.one}, name="k")
        else:
            base, _ = resolve_hopf(spec["base"], field)
        bd = base.dim
        _check(doc, "crossed-product extension", what, {"dim B": bd, "|G|": g.order})
        action = None
        if "action" in spec:
            action = {
                int(key): SparseMatrix.from_entries(bd, bd, field, triples)
                for key, triples in spec["action"].items()
            }
            missing = [x for x in range(g.order) if x not in action]
            if missing:
                raise InputError(
                    f"{what}: the action has no matrix for group element {missing[0]}"
                )
        cocycle = None
        if "cocycle" in spec:
            cocycle = {}
            for key, entries in spec["cocycle"].items():
                w = cocycle[tuple(map(int, key.split(",")))] = {}
                for i, c in entries:
                    vec_add_at(w, i, field.coerce(c))
        name = doc.get("name")
        return crossed_product(base, g, action=action, cocycle=cocycle, name=name), doc
    raise InputError(f"{what} needs a 'grading' or 'crossed_product' entry")


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def _check_entries(rep: CheckReport, prefix: str = "") -> list:
    out = []
    for r in rep.checks:
        entry = {"name": prefix + r.name, "passed": r.passed}
        if r.witness is not None:
            entry["witness"] = r.witness
        out.append(entry)
    return out


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
        return
    print(f"schema {report['schema']}  command: {' '.join(report['command'])}")
    for name, digest in sorted(report["inputs"].items()):
        print(f"input  {name}  sha256:{digest[:16]}…")
    for entry in report["checks"]:
        mark = "ok  " if entry["passed"] else "FAIL"
        wit = f"  [{entry['witness']}]" if not entry["passed"] and entry.get(
            "witness"
        ) else ""
        print(f"  {mark} {entry['name']}{wit}")
    for title, table in sorted(report["tables"].items()):
        if isinstance(table, list) and all(
            not isinstance(x, (dict, list)) for x in table
        ):
            cells = " ".join("inf" if x is None else str(x) for x in table)
            print(f"{title}: {cells}")
        else:
            print(f"{title}: {json.dumps(table, sort_keys=True)}")
    t = report.get("timings", {})
    if t:
        print("timings: " + ", ".join(f"{k}={v}s" for k, v in sorted(t.items())))
    print(f"status: {report['status']}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _require_char_zero(field, what: str) -> None:
    if field.characteristic != 0:
        raise InputError(
            f"{what} requires characteristic zero; "
            f"{field.name} has characteristic {field.characteristic}"
        )


def _cmd_verify(args, field, inputs, checks, tables) -> None:
    kind = args.kind
    refs = args.refs
    if kind in ("hopf", "crossed", "galois") and len(refs) != 1:
        raise InputError(f"verify {kind} takes exactly one document")
    if kind == "cyclic" and len(refs) != 2:
        raise InputError("verify cyclic takes a Hopf algebra and a module")
    if kind == "hopf":
        h, doc = resolve_hopf(refs[0], field)
        inputs[f"hopf {_ref_label(refs[0])}"] = _sha(_canonical(doc))
        checks += _check_entries(verify_hopf(h))
    elif kind == "crossed":
        doc = _load_object(refs[0], "module")
        _check(doc, "crossed", f"module document {_ref_label(refs[0])}")
        h, _ = resolve_hopf(doc["base"], field)
        m, _ = resolve_module(refs[0], h)
        inputs[f"crossed {_ref_label(refs[0])}"] = _sha(_canonical(doc))
        checks += _check_entries(verify_modular(m))
    elif kind == "cyclic":
        h, hdoc = resolve_hopf(refs[0], field)
        m, mdoc = resolve_module(refs[1], h)
        inputs[f"hopf {_ref_label(refs[0])}"] = _sha(_canonical(hdoc))
        inputs[f"module {_ref_label(refs[1])}"] = _sha(_canonical(mdoc))
        z = build_cyclic(m.h, m, args.max_degree + 1, require_modular=False)
        checks += _check_entries(verify_cyclic_identities(z, args.max_degree))
    else:  # galois
        ca, doc = resolve_extension(refs[0], field)
        inputs[f"extension {_ref_label(refs[0])}"] = _sha(_canonical(doc))
        checks += _check_entries(verify_comodule_algebra(ca))
        g = galois_check(ca)
        checks += _check_entries(g.report)
        tables["base dimension"] = [g.base.dim]


def _cmd_homology(args, field, inputs, checks, tables) -> None:
    want_hc = args.command == "hc"
    if want_hc:
        _require_char_zero(field, "cyclic homology")
    h, hdoc = resolve_hopf(args.hopf, field)
    m, mdoc = resolve_module(args.module, h)
    inputs[f"hopf {_ref_label(args.hopf)}"] = _sha(_canonical(hdoc))
    inputs[f"module {_ref_label(args.module)}"] = _sha(_canonical(mdoc))
    n = args.max_degree
    z = build_cyclic(m.h, m, n + 1)
    if not want_hc:
        tables["hh"] = hochschild(z, 0, n)
        return
    if args.method == "both":
        # bicomplex first: z's cached lambda data stay out of its elimination
        b = hc_bicomplex(z, 0, n)
        a = hc_connes(z, 0, n)
        tables["hc (lambda)"] = a
        tables["hc (bicomplex)"] = b
        checks.append(
            {"name": "the two cyclic routes agree", "passed": a == b}
        )
    else:
        tables[f"hc ({args.method})"] = hc(z, 0, n, method=args.method)


def _cmd_galois(args, field, inputs, checks, tables) -> None:
    ca, doc = resolve_extension(args.extension, field)
    inputs[f"extension {_ref_label(args.extension)}"] = _sha(_canonical(doc))
    checks += _check_entries(verify_comodule_algebra(ca))
    g = galois_check(ca)
    checks += _check_entries(g.report)
    lc = lambda_iso(g, max_degree=args.max_degree)
    checks += _check_entries(lc.report)
    tables["relative dims"] = [lc.relative.dim(k) for k in range(args.max_degree + 1)]
    if lc.hc_relative is not None:
        tables["hc (relative)"] = lc.hc_relative
        tables["hc (transported)"] = lc.hc_hopf


def _cmd_burghelea(args, field, inputs, checks, tables) -> None:
    _require_char_zero(field, "the conjugacy-class folding")
    g, gdoc = resolve_group(args.group)
    h = group_algebra(g, field, name=f"k[{args.group}]")
    m, mdoc = resolve_module(args.module, h)
    inputs[f"group {_ref_label(args.group)}"] = _sha(_canonical(gdoc))
    inputs[f"module {_ref_label(args.module)}"] = _sha(_canonical(mdoc))
    bf = burghelea_finite(g, m, 0, args.max_degree)
    checks += _check_entries(bf.report)
    tables["hc (direct)"] = bf.direct
    tables["hc (folded)"] = bf.folded
    tables["per class"] = {k: v for k, v in sorted(bf.per_class.items())}


def _cmd_qtorus(args, field, inputs, checks, tables) -> None:
    doc = _load_object(args.document, "torus")
    inputs["torus"] = _sha(_canonical(doc))
    _check(doc, "torus", f"torus document {_ref_label(args.document)}")
    order = doc.get("q_order")
    try:
        tc = TorusCocycle(doc["r"], doc["a"], None if order == "infinite" else order)
    except ValueError as exc:  # the exponent matrix is not antisymmetric
        raise InputError(f"bad torus document: {exc}") from exc
    th = torus_homology(tc, 0, args.max_degree)
    lat = th.lattice
    tables["hh totals"] = th.hh_totals
    tables["hc totals"] = th.hc_totals
    tables["per point"] = [
        {
            "degree": k,
            "hh": th.hh[k].at_origin,
            "hc at origin": th.hc[k].at_origin,
            "hc elsewhere": th.hc[k].per_other_point,
        }
        for k in range(args.max_degree + 1)
    ]
    tables["lattice"] = {
        "rank": lat.rank,
        "index": lat.index,
        "basis": [list(b) for b in lat.basis],
    }
    bound = 2 * tc.q_order if tc.q_order else 4
    if (2 * bound + 1) ** tc.r <= 50_000:
        checks += _check_entries(box_check(tc, bound))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hopfcyclic",
        description="exact cyclic homology for Hopf algebras and "
        "Hopf-Galois extensions",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--max-degree", type=int, default=3, metavar="N",
                        help="largest homological degree (default 3)")
    common.add_argument("--field", default="q", metavar="F",
                        help="q for the rationals, f<p> for the prime field GF(p), p < 2^31")
    common.add_argument("--method", choices=("lambda", "bicomplex", "both"),
                        default="lambda", help="cyclic homology route")
    common.add_argument("--format", choices=("json", "table"), default="table",
                        dest="fmt", help="report format")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="run an axiom suite on a document")
    p.add_argument("kind", choices=("hopf", "crossed", "cyclic", "galois"))
    p.add_argument("refs", nargs="+", metavar="DOC")

    for name, blurb in (("hh", "Hochschild homology"), ("hc", "cyclic homology")):
        p = sub.add_parser(name, parents=[common], help=blurb)
        p.add_argument("hopf", help="builtin group name or Hopf document")
        p.add_argument("module", help="builtin module name or document")

    p = sub.add_parser("galois", parents=[common],
                       help="certify an extension and compare both homologies")
    p.add_argument("extension", help="builtin alias or extension document")

    p = sub.add_parser("burghelea", parents=[common],
                       help="conjugacy-class folding vs direct computation")
    p.add_argument("group", help="builtin group name or group document")
    p.add_argument("module", help="builtin module name or document")

    p = sub.add_parser("qtorus", parents=[common],
                       help="quantum-torus lattice and point counts")
    p.add_argument("document", help="torus document (file or inline JSON)")
    return top


_DISPATCH = {
    "verify": _cmd_verify,
    "hh": _cmd_homology,
    "hc": _cmd_homology,
    "galois": _cmd_galois,
    "burghelea": _cmd_burghelea,
    "qtorus": _cmd_qtorus,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if args.max_degree < 1:
        print("input error: --max-degree must be at least 1", file=sys.stderr)
        return 2
    started = time.monotonic()
    inputs: dict = {}
    checks: list = []
    tables: dict = {}
    try:
        field = resolve_field(args.field)
        _DISPATCH[args.command](args, field, inputs, checks, tables)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (CharacteristicError, TruncationError, ScalarError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    ok = all(entry["passed"] for entry in checks)
    echo = [args.command]
    if args.command == "verify":
        echo += [args.kind, *args.refs]
    elif args.command in ("hh", "hc"):
        echo += [args.hopf, args.module]
    elif args.command == "galois":
        echo += [args.extension]
    elif args.command == "burghelea":
        echo += [args.group, args.module]
    else:
        echo += [args.document]
    report = {
        "schema": 2,
        "command": echo,
        "config": {
            "max_degree": args.max_degree,
            "field": args.field,
            "method": args.method,
        },
        "inputs": inputs,
        "checks": checks,
        "tables": tables,
        "status": "pass" if ok else "fail",
        "timings": {"total": round(time.monotonic() - started, 6)},
    }
    _emit(report, args.fmt)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
