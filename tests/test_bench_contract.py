"""The contract between the package and the benchmark under ``bench/``.

The benchmark gates every run on the SHA-256 of each command's stdout
(``bench/goldens.json``), and its tracer (``bench/layers.py``) rebinds
package functions by name.  These tests read ``bench/`` and change nothing
there, so a refactor that changes an output byte, or a name the tracer
resolves, fails here as well as in the benchmark.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

# every module the tracer wraps, imported before the bindings are read
from worpitzky import bernoulli, cli, eulerian, exactnum, map_b, map_d, oeis, signed_perm, sigma_vectors  # noqa: F401

BENCH = Path(__file__).resolve().parents[1] / "bench"

with open(BENCH / "goldens.json", encoding="utf-8") as f:
    GOLDENS = json.load(f)


def load_layers():
    """``bench/layers.py`` as a module of its own, without a bytecode file."""
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
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


def test_bench_tracer_installs_and_uninstalls_cleanly():
    layers = load_layers()
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
