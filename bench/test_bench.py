"""Tests for the benchmark's own code: the tracer, the traced session and
the correctness gate.

    python3 -m pytest bench
"""

import json
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import session  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_covered_child_intervals():
    clock = FakeClock()
    tracer = layers.Tracer(clock)
    tracer.enter("outer")
    clock.now = 1.0
    tracer.enter("child")
    clock.now = 3.0
    tracer.exit()
    clock.now = 4.0
    tracer.enter("child")
    clock.now = 4.5
    tracer.enter("leaf")
    clock.now = 5.0
    tracer.exit()
    clock.now = 6.0
    tracer.exit()
    clock.now = 10.0
    tracer.exit()
    assert tracer.inclusive("outer") == 10.0
    assert tracer.self_time("outer") == 10.0 - 2.0 - 2.0
    assert tracer.self_time("child") == 2.0 + 1.5
    assert tracer.self_time("leaf") == 0.5
    assert tracer.calls("child") == 2
    assert tracer.edges == {("outer", "child"): 2, ("child", "leaf"): 1}


def test_nested_span_of_the_same_name_is_part_of_the_outer_one():
    clock = FakeClock()
    tracer = layers.Tracer(clock)
    tracer.enter("row")
    clock.now = 1.0
    tracer.enter("row")
    clock.now = 3.0
    tracer.exit()
    clock.now = 4.0
    tracer.exit()
    assert tracer.calls("row") == 1
    assert tracer.inclusive("row") == 4.0
    assert tracer.self_time("row") == 4.0


def test_iterator_wrapper_counts_yields_and_not_the_consumer():
    clock = FakeClock()
    tracer = layers.Tracer(clock)

    def produce(k):
        for i in range(k):
            clock.now += 1.0
            yield i
        clock.now += 0.25

    items = []
    for item in tracer.iterate(produce, "gen")(5):
        clock.now += 10.0
        items.append(item)
    assert items == [0, 1, 2, 3, 4]
    assert tracer.calls("gen") == 5
    assert tracer.inclusive("gen") == 5.25


def test_call_wrapper_preserves_results_and_exceptions():
    tracer = layers.Tracer()

    def f(x):
        if x < 0:
            raise ValueError("negative")
        return [x]

    wrapped = tracer.call(f, "f")
    assert wrapped.__name__ == "f"
    assert wrapped(3) == [3]
    with pytest.raises(ValueError, match="negative"):
        wrapped(-1)
    assert tracer.calls("f") == 2

    def g():
        yield 1
        raise KeyError("k")

    it = tracer.iterate(g, "g")()
    assert next(it) == 1
    with pytest.raises(KeyError):
        next(it)
    assert tracer.calls("g") == 2
    assert not tracer._stack


def _bindings():
    from worpitzky import exactnum, signed_perm

    owners = layers._package_modules() + [signed_perm.SignedPermutation, exactnum.QPolynomial]
    return {(repr(owner), attr): id(value) for owner in owners for attr, value in vars(owner).items()}


SMALL = [
    "eulerian --type D --n 4 --q",
    "verify --identity worpitzky-b --n-range 1..3 --m-range 0..2 --jobs 2",
    "verify --identity balance-d --n-range 3..3 --m-range 2..2 --jobs 1",
    "verify --identity worpitzky-d --n-range 2..4 --m-range 0..2",
    "verify --identity erratum-d --n-range 2..3 --m-range 0..1",
    "missing --n 3 --m 1 --jobs 2",
    "missing --n 3 --m 2 --jobs 1",
    "fibers --type D --n 3 --m 1 --format json --vectors",
    "fibers --type B --n 3 --m 1",
    "oeis-check --seq A262226 --max-n 4",
]


def test_traced_stdout_is_byte_identical_and_wrappers_are_removed():
    from worpitzky import cli

    before = _bindings()
    commands = [line.split() for line in SMALL]
    plain = [session.run_command(cli.main, argv) for argv in commands]
    tracer = layers.Tracer()
    layers.install(tracer)
    try:
        traced = [session.run_command(cli.main, argv, tracer) for argv in commands]
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert [(r["exit"], r["error"]) for r in traced] == [(0, None)] * len(SMALL)
    assert [r["sha256"] for r in traced] == [r["sha256"] for r in plain]

    metrics = layers.layer_metrics(tracer, sum(r["bytes"] for r in traced))
    assert metrics["pool.shards"] > 0
    assert metrics["map_d.psi_calls"] > 0
    assert metrics["map_d.fiber_revalidations"] > 0
    assert metrics["sigma_vectors.vectors_swept"] > 0
    assert metrics["cli.self_s"] > 0


def test_enumeration_counts_each_group_element_once():
    from worpitzky import eulerian

    tracer = layers.Tracer()
    layers.install(tracer)
    try:
        elements = list(eulerian.enumerate_dn(4))
    finally:
        tracer.uninstall()
    assert len(elements) == 2**3 * 24
    assert tracer.calls("signed_perm.enum") == len(elements)


def test_layer_metrics_match_the_declared_per_layer_metrics():
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as f:
        declared = {m["name"] for m in json.load(f)["per_layer"]}
    assert set(layers.layer_metrics(layers.Tracer(), 0)) | {"trace.overhead_s"} == declared


def test_gate_counts_every_kind_of_failure():
    def result(argv, exit_code=0, error=None, digest="good"):
        return {"argv": argv.split(), "exit": exit_code, "error": error, "sha256": digest}

    record = {
        "commands": [
            result("ok --jobs 2"),
            result("ok", exit_code=1),
            result("ok", exit_code=None, error="ValueError: boom"),
            result("ok", digest="bad"),
            result("unknown"),
        ]
    }
    attempted, failed, reasons = run.gate([record], {"ok": "good"})
    assert (attempted, failed) == (5, 4)
    assert len(reasons) == 4


def test_goldens_cover_every_workload_command():
    with open(run.GOLDENS, encoding="utf-8") as f:
        goldens = json.load(f)
    keys = {run.golden_key(argv) for w in run.WORKLOADS.values() for argv in w.commands}
    assert keys == set(goldens)


def test_refuses_more_jobs_than_cpus():
    commands = run.WORKLOADS["sweep-par"].commands
    run.check_jobs(commands, 2)
    with pytest.raises(run.BenchError, match="--jobs 2"):
        run.check_jobs(commands, 1)


def test_exits_nonzero_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "rows", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_speed_probe_samples_while_active_and_restores_the_signal():
    with session.SpeedProbe() as probe:
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 2
    assert all(s > 0 for s in probe.samples)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
