"""Self-tests of the benchmark harness.  Run: python3 -m pytest perfbench"""

import gc
import json
import random
import sys

import pytest

import run
import speed
from tracer import Tracer, _wrap, instrument


@pytest.fixture(scope="module")
def cli():
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    return run.import_cli()


def test_self_time_subtracts_child_spans():
    now = [0.0]
    t = Tracer(clock=lambda: now[0])

    def leaf():
        now[0] += 1.0

    def middle():
        now[0] += 2.0
        traced_leaf()
        now[0] += 0.5

    def outer():
        now[0] += 1.0
        traced_middle()
        traced_leaf()
        now[0] += 4.0

    traced_leaf = _wrap(t, "leaf", leaf)
    traced_middle = _wrap(t, "middle", middle)
    root = t.begin_op("synthetic")
    now[0] += 0.25
    _wrap(t, "outer", outer)()
    t.end_op(root)

    selfs = dict(t.self_times()[0])
    assert selfs == {"op": 0.25, "outer": 5.0, "middle": 2.5, "leaf": 2.0,
                     "trace.count": 0.0}
    assert sum(selfs.values()) == t.op_durations()[0] == 9.75
    assert t.counts[0]["leaf.calls"] == 2


def test_reference_seconds_weight_each_gap_by_the_recent_kernel_speed():
    ref = speed.REFERENCE_KERNEL_S
    probe = speed.SpeedProbe()
    # kernel runs at full speed at t=0, then at half speed at t=1 and t=2:
    # each gap is weighted by the median duration of the runs so far
    probe.starts = [0.0, 1.0, 2.0]
    probe.ends = [ref, 1.0 + 2 * ref, 2.0 + 2 * ref]
    assert probe.seconds(0.0, 3.0) == pytest.approx(
        (1.0 - ref) + (1.0 - 2 * ref) / 1.5 + (1.0 - 2 * ref) / 2)
    assert probe.seconds(0.5, 1.5) == pytest.approx(0.5 + (0.5 - 2 * ref) / 1.5)


def test_a_stalled_kernel_run_keeps_the_gap_after_it():
    ref = speed.REFERENCE_KERNEL_S
    probe = speed.SpeedProbe()
    # the kernel run at t=2 stalls for 0.3 s, the others run at full speed
    probe.starts = [0.0, 1.0, 2.0, 3.0, 4.0]
    probe.ends = [ref, 1.0 + ref, 2.3, 3.0 + ref, 4.0 + ref]
    assert probe.seconds(0.0, 5.0) == pytest.approx(4 * (1.0 - ref) + 0.7)


def test_kernel_runs_with_the_garbage_collector_off(monkeypatch):
    seen = []
    monkeypatch.setattr(speed, "kernel", lambda: seen.append(gc.isenabled()))
    probe = speed.SpeedProbe()
    assert gc.isenabled()
    probe.sample()
    assert seen == [False] and gc.isenabled()
    assert len(probe.starts) == 1 and probe.ends[0] >= probe.starts[0]


def test_wrong_expected_table_counts_as_failure(cli):
    good = run.Command(("hh", "z2", "adjoint", "--max-degree", "1"), {"hh": [2, 0]})
    bad = run.Command(("hh", "z2", "adjoint", "--max-degree", "1"), {"hh": [3, 0]})
    w = run.Workload((good, bad), "q", hopf="z2", module="adjoint")
    loop = run.closed_loop(cli, w, random.Random(0), 0.0)
    failures = run.failures(loop["ops"])
    assert len(loop["ops"]) == 2
    assert failures == ["hh z2 adjoint --max-degree 1: table 'hh' is [2, 0], "
                        "expected [3, 0]"]


def test_traced_and_untraced_ops_return_identical_tables(cli):
    cmds = [
        run.Command(("hc", "s3", "adjoint", "--method", "both",
                     "--max-degree", "1"),
                    {"hc (lambda)": [3, 0], "hc (bicomplex)": [3, 0]}),
        run.Command(("galois", "kz4_over_kz2", "--max-degree", "1"),
                    {"hc (relative)": [4, 0], "hc (transported)": [4, 0]}),
    ]
    linalg = sys.modules["hopfcyclic.linalg"]
    original = linalg.echelonize
    plain = [run.run_command(cli, c) for c in cmds]
    tracer = Tracer()
    undo = instrument(tracer)
    try:
        assert linalg.echelonize is not original
        traced = []
        for c in cmds:
            root = tracer.begin_op(c.label)
            traced.append(run.run_command(cli, c))
            tracer.end_op(root)
    finally:
        undo()
    assert [p[2:] for p in plain] == [t[2:] for t in traced]
    assert all(p[3] is None for p in plain)
    names = {s[0] for s in tracer.spans}
    assert {"linalg.echelonize", "cyclic.operator", "galois.lambda_iso"} <= names
    assert linalg.echelonize is original


def test_benchmark_json_names_what_the_harness_emits():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "solve_s", "setup_s", "peak_rss_mb"}
    layer = run.layer_metrics({}, {})
    emitted = set(layer) | {"trace.overhead", "trace.fingerprint_mismatches"}
    assert {m["name"] for m in spec["per_layer"]} == emitted
