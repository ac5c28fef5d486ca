"""The contract between the package and the benchmark under ``bench/``.

The benchmark gates every run on the SHA-256 of each command's stdout
(``bench/goldens.json``), and its tracer (``bench/layers.py``) rebinds
package functions by name.  These tests read ``bench/`` and change nothing
there, so a refactor that changes an output byte, or a name the tracer
resolves, fails here as well as in the benchmark.  The ``sweep-par``
workload's commands (``bench/run.py``) pass ``--jobs 2``, which the sweeps
accept and ignore: they run in this process and start none.
"""

import hashlib
import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

# every module the tracer wraps, imported before the bindings are read
from worpitzky import bernoulli, cli, eulerian, exactnum, map_b, map_d, oeis, signed_perm, sigma_vectors  # noqa: F401

BENCH = Path(__file__).resolve().parents[1] / "bench"

with open(BENCH / "goldens.json", encoding="utf-8") as f:
    GOLDENS = json.load(f)


def load_bench(name):
    """``bench/<name>.py`` as a module of its own, without a bytecode file.
    It sits in ``sys.modules`` while it runs, as its dataclasses need."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
        del sys.modules[spec.name]
    return module


def bindings(layers):
    owners = layers._package_modules() + [signed_perm.SignedPermutation, exactnum.QPolynomial]
    return {(repr(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


@pytest.mark.parametrize("command", sorted(GOLDENS))
def test_bench_golden_command_prints_its_recorded_bytes(capsys, command):
    code = cli.main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDENS[command]


def test_bench_parallel_sweeps_print_their_goldens_and_start_no_process(capsys, monkeypatch):
    run = load_bench("run")
    started = []

    def no_process(*args, **kwargs):
        started.append(args)
        raise AssertionError("a sweep started a process")

    monkeypatch.setattr(sigma_vectors, "Pool", no_process)
    monkeypatch.setattr(os, "fork", no_process)
    commands = run.WORKLOADS["sweep-par"].commands
    assert len(commands) == 3 and all(argv[argv.index("--jobs") + 1] == "2" for argv in commands)
    for argv in commands:
        code = cli.main(list(argv))
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDENS[run.golden_key(argv)]
    assert started == []


def test_bench_tracer_installs_and_uninstalls_cleanly():
    layers = load_bench("layers")
    before = bindings(layers)
    phi = map_b.phi
    tracer = layers.Tracer()
    layers.install(tracer)
    try:
        assert map_b.phi is not phi  # the tracer wraps the layers
    finally:
        tracer.uninstall()
    after = bindings(layers)
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
