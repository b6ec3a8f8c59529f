#!/usr/bin/env python3
"""Benchmark: certified homology answers from the hopfcyclic CLI.

Run from the repository root:

    python3 perfbench/run.py --workload hc-s3 --seed 1 --seconds 55 --trace 0

One process, one thread, closed loop: each op is one in-process call to
``hopfcyclic.cli.main([..., "--format", "json"])`` and the next op starts
when the previous one returns.  A cycle is one call of each of the
workload's commands, in an order drawn from ``--seed``.  Every answer is
checked against tables that follow from theory.  ``--trace 0`` prints the
end-to-end metrics, in reference seconds (see speed.py); ``--trace 1``
alternates untraced and traced cycles and prints the per-layer metrics of
the traced ones, in wall seconds.  The last line of stdout is one JSON
object; details go to ``perfbench/results/``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from speed import SpeedProbe
from tracer import COUNT, OP, PACKAGE, Tracer, instrument

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Command:
    argv: tuple
    expected: dict  # table name -> dims; only these tables are compared

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    commands: tuple
    field: str
    hopf: str = ""
    module: str = ""
    extension: str = ""


# Expected tables come from theory, never from a program run.  With adjoint
# coefficients over a group algebra, HH_0 and HC_even count conjugacy classes
# (5 for D4, 3 for S3) and every other degree vanishes; over GF(5) the same
# holds because 5 does not divide |D4| = 8.  kS3 over kA3 transports
# HC = (3, 0, 3) (acceptance criterion 05).  The hh-d4 workloads are for
# manual runs only; BENCHMARK.json leaves them out (see NOTES.md).
_D4_HH = {"hh": [5, 0, 0, 0]}
_S3_HC = [3, 0, 3, 0]
WORKLOADS = {
    "hh-d4-q": Workload(
        (Command(("hh", "d4", "adjoint", "--max-degree", "3"), _D4_HH),),
        "q", hopf="d4", module="adjoint",
    ),
    "hh-d4-f5": Workload(
        (Command(("hh", "d4", "adjoint", "--max-degree", "3", "--field", "f5"),
                 _D4_HH),),
        "f5", hopf="d4", module="adjoint",
    ),
    "hc-s3": Workload(
        (
            Command(("hc", "s3", "adjoint", "--method", "both", "--max-degree", "3"),
                    {"hc (lambda)": _S3_HC, "hc (bicomplex)": _S3_HC}),
            Command(("burghelea", "s3", "adjoint", "--max-degree", "3"),
                    {"hc (direct)": _S3_HC, "hc (folded)": _S3_HC}),
        ),
        "q", hopf="s3", module="adjoint",
    ),
    "galois-s3a3": Workload(
        (Command(("galois", "s3_over_a3", "--max-degree", "2"),
                 {"hc (relative)": [3, 0, 3], "hc (transported)": [3, 0, 3]}),),
        "q", extension="s3_over_a3",
    ),
}

# Per-layer metrics: self time of every traced layer, exact counts, ratios.
LAYERS = (
    "linalg.echelonize", "linalg.reduce", "linalg.matmul",
    "linalg.induced_matrix", "linalg.chain_check", "linalg.bicomplex_check",
    "cyclic.operator", "cyclic.connes_data", "cyclic.tsygan_bicomplex",
    "cyclic.bar_complex", "cyclic.build", "cyclic.identities",
    "galois.galois_check", "galois.relative_cyclic", "galois.lambda_iso",
    "crossed.verify", "crossed.decompose", "hopf.inputs",
)
COUNTED = (
    "linalg.echelonize.calls", "linalg.echelonize.rows_in",
    "linalg.echelonize.nnz_in", "linalg.echelonize.rank",
    "linalg.reduce.calls", "linalg.reduce.pivot_rows",
    "linalg.matmul.calls", "linalg.matmul.mults", "linalg.matmul.nnz_out",
    "linalg.induced_matrix.calls",
    "cyclic.operator.calls", "cyclic.operator.cols", "cyclic.operator.nnz",
    "cyclic.identities.cols_checked", "cyclic.identities.sampled",
)
RATIOS = {  # metric -> (numerator count, denominator count)
    "linalg.echelonize.fill": ("linalg.echelonize.retired_nnz",
                               "linalg.echelonize.nnz_in"),
    "linalg.reduce.zero_frac": ("linalg.reduce.zeros", "linalg.reduce.calls"),
    "cyclic.operator.hit_ratio": ("cyclic.operator.hits",
                                  "cyclic.operator.calls"),
}


# -- set-up -----------------------------------------------------------------


def import_cli():
    """A fresh import of the package, so each set-up pays the import."""
    for name in [n for n in sys.modules
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return importlib.import_module(PACKAGE + ".cli")


def resolve_inputs(cli, w: Workload):
    """Build the workload's inputs through the CLI resolvers, with their
    construction checks."""
    field = cli.resolve_field(w.field)
    if w.extension:
        return cli.resolve_extension(w.extension, field)
    h, _ = cli.resolve_hopf(w.hopf, field)
    return cli.resolve_module(w.module, h)


def timed_setup(w: Workload):
    """(fresh cli module, (start, end) clock readings)."""
    start = time.perf_counter()
    cli = import_cli()
    resolve_inputs(cli, w)
    return cli, (start, time.perf_counter())


# -- ops --------------------------------------------------------------------


def check_report(code: int, text: str, expected: dict):
    """(tables, failure message or None) for one CLI report."""
    if code != 0:
        return {}, f"exit code {code}"
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return {}, f"report is not JSON: {exc}"
    tables = {k: report.get("tables", {}).get(k) for k in expected}
    if report.get("status") != "pass":
        return tables, f"status {report.get('status')!r}"
    for name, want in expected.items():
        if tables[name] != want:
            return tables, f"table {name!r} is {tables[name]!r}, expected {want!r}"
    return tables, None


def run_command(cli, cmd: Command):
    """One op: (start, end, compared tables, failure message or None)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main([*cmd.argv, "--format", "json"])
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return start, time.perf_counter(), {}, f"raised {exc!r}"
    end = time.perf_counter()
    return (start, end, *check_report(code, out.getvalue(), cmd.expected))


def closed_loop(cli, w: Workload, rng: random.Random, seconds: float,
                tracer: Tracer | None = None,
                probe: SpeedProbe | None = None) -> dict:
    """Run cycles until the next one would end past `seconds`.

    With a tracer, odd cycles are traced and even ones are not; at least one
    of each runs.  With a probe, cycle times are reference seconds, else
    wall seconds.  Returns cycle times by tracing state, op records and the
    tables each command returned.
    """
    timed = probe.seconds if probe is not None else wall_seconds
    cycles = {False: [], True: []}
    ops, tables = [], {}
    durations: list = []  # wall seconds of each cycle, tracing set-up included
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        traced = tracer is not None and len(durations) % 2 == 1
        undo = instrument(tracer) if traced else None
        cycle = 0.0
        try:
            for cmd in rng.sample(w.commands, len(w.commands)):
                root = tracer.begin_op(cmd.label) if traced else None
                try:
                    a, b, got, failure = run_command(cli, cmd)
                finally:
                    if traced:
                        tracer.end_op(root)
                if failure is None and tables.setdefault(cmd.label, got) != got:
                    failure = "tables differ from an earlier op"
                cycle += timed(a, b)
                ops.append({"command": cmd.label, "seconds": timed(a, b),
                            "wall_s": b - a, "traced": traced,
                            "failure": failure})
        finally:
            if undo is not None:
                undo()
        cycles[traced].append(cycle)
        now = time.perf_counter()
        durations.append(now - began)
        # the next cycle is assumed to take as long as the slower of the
        # last two (traced and untraced cycles alternate)
        if (len(durations) >= (2 if tracer is not None else 1)
                and now - start + max(durations[-2:]) > seconds):
            break
    return {"cycles": cycles, "ops": ops, "tables": tables}


def wall_seconds(a: float, b: float) -> float:
    return b - a


def failures(ops: list) -> list:
    """One message per failed op; fail_frac is their share of the ops."""
    return [f"{op['command']}: {op['failure']}"
            for op in ops if op["failure"] is not None]


# -- per-layer metrics --------------------------------------------------------


def per_command(tracer: Tracer) -> tuple:
    """Per command: mean self seconds by span name over its traced ops, and
    its counts; plus the number of ops whose counts differ from the first
    traced op of the same command."""
    selfs = tracer.self_times()
    durations = tracer.op_durations()
    times: dict = {}
    counts: dict = {}
    mismatches = 0
    for op, label in tracer.op_labels.items():
        mine = dict(tracer.counts.get(op, {}))
        if label in counts:
            mismatches += counts[label] != mine
        else:
            counts[label] = mine
        row = dict(selfs.get(op, {}))
        row["trace.op_s"] = durations[op]
        times.setdefault(label, []).append(row)
    means = {}
    for label, rows in times.items():
        keys = set().union(*rows)
        means[label] = {k: sum(r.get(k, 0.0) for r in rows) / len(rows)
                        for k in keys}
    return means, counts, mismatches


def layer_metrics(means: dict, counts: dict) -> dict:
    """Per-cycle per-layer metrics: each command of the workload once."""
    def total_time(key):
        return sum(m.get(key, 0.0) for m in means.values())

    def total_count(key):
        return sum(c.get(key, 0) for c in counts.values())

    out = {f"{layer}.self_s": {"value": total_time(layer), "unit": "s"}
           for layer in LAYERS}
    for key in COUNTED:
        out[key] = {"value": total_count(key), "unit": "count"}
    for key, (num, den) in RATIOS.items():
        d = total_count(den)
        out[key] = {"value": total_count(num) / d if d else 0.0, "unit": "ratio"}
    out["trace.op_s"] = {"value": total_time("trace.op_s"), "unit": "s"}
    out["trace.other_s"] = {"value": total_time(OP), "unit": "s"}
    out["trace.count_s"] = {"value": total_time(COUNT), "unit": "s"}
    return out


def compare_fingerprint(workload: str, counts: dict, source: str) -> int:
    """Count differences against the last traced run of the same source;
    store these counts when there is none."""
    path = RESULTS / f"{workload}-fingerprint.json"
    if path.is_file():
        old = json.loads(path.read_text())
        if old.get("source_sha256") == source:
            labels = set(old["counts"]) | set(counts)
            return sum(old["counts"].get(k) != counts.get(k) for k in labels)
    path.write_text(json.dumps({"source_sha256": source, "counts": counts},
                               indent=1, sort_keys=True))
    return 0


# -- run metadata ------------------------------------------------------------


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:  # no git on the machine
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def metadata(args, source: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


# -- entry point --------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]

    if not (SRC / PACKAGE / "cli.py").is_file():
        print(f"no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # traced runs report wall seconds: the probe's kernel runs would land
    # inside the layer spans
    tracer = Tracer() if args.trace else None
    probe = None if args.trace else SpeedProbe()
    with probe or contextlib.nullcontext():
        setups = [timed_setup(w) for _ in range(SETUP_REPEATS)]
        cli = setups[-1][0]
        loop = closed_loop(cli, w, random.Random(args.seed), args.seconds,
                           tracer, probe)
    timed = probe.seconds if probe is not None else wall_seconds
    setup_times = [timed(*span) for _, span in setups]
    setup_s = statistics.median(setup_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    plain = loop["cycles"][False]
    solve_s = statistics.median(plain)
    attempted = len(loop["ops"])
    failed_ops = failures(loop["ops"])
    failed = len(failed_ops)
    source = source_sha256()
    meta = metadata(args, source)
    meta["samples"] = {"solve_s": len(plain), "setup_s": len(setups),
                       "peak_rss_mb": 1, "ops": attempted}

    RESULTS.mkdir(exist_ok=True)
    record = {"meta": meta, "setup_s": setup_times,
              "setup_wall_s": [b - a for _, (a, b) in setups],
              "ops": loop["ops"], "tables": loop["tables"]}
    if tracer is None:
        metrics = {
            "solve_s": {"value": solve_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        wall_s = statistics.median(
            sum(op["wall_s"] for op in loop["ops"][i:i + len(w.commands)])
            for i in range(0, attempted, len(w.commands)))
        meta["wall_solve_s"] = wall_s
        summary = (f"{args.workload}: solve_s {solve_s:.3f} s "
                   f"(median of {len(plain)} cycles; wall {wall_s:.3f} s), "
                   f"setup_s {setup_s:.3f} s "
                   f"(median of {len(setups)}), peak_rss_mb {peak_rss_mb:.1f} MB, "
                   f"fail_frac {failed / attempted:g} ({failed}/{attempted} ops)")
    else:
        means, counts, mismatches = per_command(tracer)
        mismatches += compare_fingerprint(args.workload, counts, source)
        traced_s = statistics.median(loop["cycles"][True])
        metrics = layer_metrics(means, counts)
        metrics["trace.overhead"] = {"value": traced_s / solve_s, "unit": "ratio"}
        metrics["trace.fingerprint_mismatches"] = {"value": mismatches,
                                                   "unit": "count"}
        meta["tracing_overhead"] = {"traced_solve_s": traced_s,
                                    "untraced_solve_s": solve_s}
        record["counts"] = counts
        names = sorted({s[0] for s in tracer.spans})
        index = {n: i for i, n in enumerate(names)}
        spans = [[index[s[0]], *s[1:]] for s in tracer.spans]
        (RESULTS / f"{args.workload}-spans.json").write_text(json.dumps(
            {"names": names, "ops": tracer.op_labels, "spans": spans},
            separators=(",", ":")))
        accounted = sum(v["value"] for k, v in metrics.items()
                        if k.endswith(".self_s")
                        or k in ("trace.other_s", "trace.count_s"))
        summary = (f"{args.workload}: traced cycle {traced_s:.3f} s vs untraced "
                   f"{solve_s:.3f} s; layer self times + remainder = "
                   f"{accounted:.6f} s of {metrics['trace.op_s']['value']:.6f} s; "
                   f"fingerprint mismatches {mismatches}")
        if mismatches:
            print(f"fingerprint mismatch on {args.workload}: exact counts "
                  "differ between traced runs of the same code", file=sys.stderr)
    record["metrics"] = metrics
    (RESULTS / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))

    for failure in failed_ops:
        print(f"failed op: {failure}", file=sys.stderr)
    print(summary)
    print(json.dumps({"correct": not failed_ops, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
