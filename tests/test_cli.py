"""End-to-end CLI behaviour: output formats, exit codes, determinism."""

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import multiprocessing.process
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from worpitzky import cli, map_b, map_d, oeis
from worpitzky.cli import main
from worpitzky.eulerian import eulerian_row_d_q
from worpitzky.map_b import phi
from worpitzky.map_d import fiber_reports, fiber_size, fiber_vectors
from worpitzky.signed_perm import SignedPermutation
from worpitzky.sigma_vectors import enumerate_vectors, parse_vector


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eulerian_text(capsys):
    code, out, _ = run(capsys, "eulerian", "--type", "B", "--n", "2")
    assert code == 0 and out.strip() == "1,6,1"


def test_eulerian_text_q(capsys):
    code, out, _ = run(capsys, "eulerian", "--type", "D", "--n", "2", "--q")
    assert code == 0 and out.strip() == "[1],[1,1],[0,1]"


def test_eulerian_type_a(capsys):
    code, out, _ = run(capsys, "eulerian", "--type", "A", "--n", "1")
    assert code == 0 and out.strip() == "1"


def test_eulerian_json(capsys):
    code, out, _ = run(capsys, "eulerian", "--type", "B", "--n", "1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"type": "B", "n": 1, "entries": [[1], [0, 1]]}


def test_eulerian_csv(capsys):
    code, out, _ = run(capsys, "eulerian", "--type", "B", "--n", "1", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["k", "q^0", "q^1"], ["0", "1", "0"], ["1", "0", "1"]]


def test_eulerian_type_d_beyond_enumeration(capsys):
    code, out, _ = run(capsys, "eulerian", "--type", "D", "--n", "12", "--q")
    assert code == 0 and out.startswith("[1],[4083,")


def test_map_type_b(capsys):
    code, out, _ = run(
        capsys, "map", "--type", "B", "--m", "3", "--vector", "1,-2,0,-1,3,-2"
    )
    assert code == 0 and out.strip() == "3,-4,1,-6,-2,5"


def test_map_type_d_flip(capsys):
    code, out, _ = run(capsys, "map", "--type", "D", "--m", "2", "--vector", "-2,0,0")
    assert code == 0 and out.strip() == "-2,3,-1 (flipped)"


def test_map_type_d_missing(capsys):
    code, out, _ = run(capsys, "map", "--type", "D", "--m", "2", "--vector", "2,0,-1")
    assert code == 0 and out.strip() == "missing: case2b"


def test_map_bound_violation_is_usage_error(capsys):
    code, _, err = run(capsys, "map", "--type", "B", "--m", "1", "--vector", "2,0")
    assert code == 2 and "exceeds bound" in err


@pytest.mark.parametrize("group,vector", [("B", "0"), ("D", "0,0")])
def test_map_negative_m_is_usage_error(capsys, group, vector):
    code, out, err = run(capsys, "map", "--type", group, "--m", "-1", "--vector", vector)
    assert code == 2 and out == ""
    assert err == "error: need m >= 0\n"


def test_verify_worpitzky_d(capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", "worpitzky-d",
        "--n-range", "2..3", "--m-range", "1..1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert "worpitzky-d n=2 m=1: PASS  lhs=5 rhs=5" in lines[0]
    assert "worpitzky-d n=3 m=1: PASS  lhs=15 rhs=15" in lines[1]


def test_verify_worpitzky_b_trivial(capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", "worpitzky-b",
        "--n-range", "1..1", "--m-range", "0..0",
    )
    assert code == 0 and "PASS" in out


def test_verify_erratum_reports_discrepancy(capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", "erratum-d",
        "--n-range", "2..2", "--m-range", "1..1",
    )
    assert code == 0
    assert "CONFIRMED" in out
    assert "2 vs 5" in out


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", "worpitzky-b",
        "--n-range", "2..2", "--m-range", "1..1", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    (report,) = data["reports"]
    assert report["lhs"] == report["rhs"] == report["brute"] == [4, 4, 1]


def test_verify_bad_range_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--identity", "worpitzky-b", "--n-range", "5..2", "--m-range", "0..0")
    assert code == 2 and out == ""
    assert err == "error: argument --n-range: empty range '5..2'\n"


@pytest.mark.parametrize("n_range,m_range", [("-1..2", "0..1"), ("1..2", "-1..1")])
def test_verify_negative_range_is_usage_error(capsys, n_range, m_range):
    code, out, err = run(
        capsys, "verify", "--identity", "worpitzky-a",
        "--n-range", n_range, "--m-range", m_range,
    )
    assert code == 2 and out == ""
    assert err == "error: need n >= 1 and m >= 0\n"


def test_verify_type_d_needs_n_at_least_two(capsys):
    code, _, err = run(
        capsys, "verify", "--identity", "balance-d",
        "--n-range", "1..2", "--m-range", "0..0",
    )
    assert code == 2 and "requires n >= 2" in err


def test_verify_refuses_rows_above_the_bound_before_any_work(capsys):
    eulerian_row_d_q.cache_clear()
    code, out, err = run(
        capsys, "verify", "--identity", "worpitzky-d",
        "--n-range", "50..51", "--m-range", "0..0",
    )
    assert code == 2 and out == ""
    assert err == "error: n must be <= 50\n"
    info = eulerian_row_d_q.cache_info()
    assert info.currsize == info.misses == 0


@pytest.mark.parametrize(
    "identity,n_range",
    [
        ("worpitzky-d", "45..50"),
        ("worpitzky-d", "48..50"),
        ("worpitzky-b", "1..50"),
        ("balance-d", "47..50"),
        ("erratum-d", "2..50"),
    ],
)
def test_verify_refuses_a_grid_of_rows_past_the_bound_before_any_report(
    capsys, monkeypatch, identity, n_range
):
    # every grid of rows up to MAX_ROW_N is admitted, and one more row is refused
    argv = ["verify", "--identity", identity, "--n-range", n_range, "--m-range", "0..0"]
    cli._check_args(cli.parse_args(argv))

    def no_row(n):
        raise AssertionError("a refused grid built a row")

    for module, name in ((map_b, "eulerian_row_a"), (map_b, "eulerian_row_b_q"), (map_d, "eulerian_row_d_q")):
        monkeypatch.setattr(module, name, no_row)
    argv[argv.index("--n-range") + 1] = n_range.replace("..50", "..51")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: n must be <= 50\n"


@pytest.mark.parametrize("identity", cli.IDENTITIES)
def test_verify_admits_every_single_row_grid(identity):
    # m = 0 keeps the worpitzky-b and balance-d sweeps at one vector
    for n in range(2, cli.MAX_ROW_N + 1):
        argv = ["verify", "--identity", identity, "--n-range", f"{n}..{n}", "--m-range", "0..0"]
        cli._check_args(cli.parse_args(argv))
    # and so is the whole grid: no bound counts the rows past MAX_ROW_N
    argv[argv.index("--n-range") + 1] = f"{cli.IDENTITIES[identity].least_n}..{cli.MAX_ROW_N}"
    cli._check_args(cli.parse_args(argv))


# the library report of each identity, by the module and name the CLI calls
LIBRARY = {
    "worpitzky-a": (map_b, "verify_worpitzky_a"),
    "worpitzky-b": (map_b, "verify_worpitzky_b"),
    "worpitzky-d": (map_d, "verify_worpitzky_d_q1"),
    "balance-d": (map_d, "verify_balance_d_q"),
    "erratum-d": (map_d, "erratum_report_d"),
}


def buffered_verify_output(reports, fmt):
    """The whole verify output, built from the finished list of reports."""
    ok = all(r.passed for r in reports)
    if fmt == "json":
        return json.dumps({"reports": [r.to_json_dict() for r in reports], "pass": ok}) + "\n"
    if fmt == "csv":
        rows = [f"{r.identity},{r.n},{r.m},{r.lhs},{r.rhs},{r.passed}" for r in reports]
        return "\n".join(["identity,n,m,lhs,rhs,pass", *rows]) + "\n"
    lines = []
    for r in reports:
        if r.identity == "erratum-d":
            status = "CONFIRMED" if r.passed else "NOT CONFIRMED"
            lines.append(
                f"erratum-d n={r.n} m={r.m}: {status}  printed={r.lhs} rhs={r.rhs} "
                f"(at q=1: {r.extras['printed_at_q1']} vs {r.extras['rhs_at_q1']})"
            )
        else:
            line = f"{r.identity} n={r.n} m={r.m}: {'PASS' if r.passed else 'FAIL'}  lhs={r.lhs} rhs={r.rhs}"
            lines.append(line + (f" brute={r.extras['brute']}" if "brute" in r.extras else ""))
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("failing", [False, True], ids=["pass", "one-fails"])
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("identity", cli.IDENTITIES)
def test_streamed_verify_output_equals_the_buffered_output(capsys, monkeypatch, identity, fmt, failing):
    module, name = LIBRARY[identity]
    real = getattr(module, name)

    def report(n, m, **kwargs):
        r = real(n, m, **kwargs)
        return r._replace(passed=False) if failing and (n, m) == (3, 1) else r

    monkeypatch.setattr(module, name, report)
    reports = [report(n, m) for n in range(2, 4) for m in range(3)]
    argv = ["verify", "--identity", identity, "--n-range", "2..3", "--m-range", "0..2", "--format", fmt]
    code, out, _ = run(capsys, *argv)
    assert code == (1 if failing else 0)
    assert out == buffered_verify_output(reports, fmt)
    if failing and fmt == "json":
        assert out.endswith('], "pass": false}\n')
    if failing and fmt == "text":
        assert ("NOT CONFIRMED" if identity == "erratum-d" else "FAIL") in out


@pytest.mark.parametrize(
    "fmt,marker",
    [("text", "worpitzky-d n="), ("csv", "\nworpitzky-d,"), ("json", '"identity": "worpitzky-d"')],
)
def test_verify_writes_each_report_before_it_builds_the_next(monkeypatch, fmt, marker):
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    real = map_d.verify_worpitzky_d_q1
    written = []

    def report(n, m):
        written.append(out.getvalue().count(marker))
        return real(n, m)

    monkeypatch.setattr(map_d, "verify_worpitzky_d_q1", report)
    argv = ["verify", "--identity", "worpitzky-d", "--n-range", "2..3", "--m-range", "0..2", "--format", fmt]
    assert main(argv) == 0
    # at the k-th report call, the k - 1 reports before it are on stdout
    assert written == list(range(6))
    assert out.getvalue().count(marker) == 6


def test_fibers_single_sigma(capsys):
    code, out, _ = run(
        capsys, "fibers", "--type", "D", "--n", "5", "--m", "4",
        "--sigma", "2,-3,1,4,-5",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "sigma=2,-3,1,4,-5 m=4 expected=6 actual=6 ok"
    assert lines[1:] == [
        "  2,1,-2,2,-3",
        "  2,1,-2,2,-4",
        "  2,1,-2,3,-4",
        "  3,1,-2,3,-4",
        "  3,1,-3,3,-4",
        "  3,2,-3,3,-4",
    ]


def test_fibers_all_sigmas(capsys):
    code, out, _ = run(capsys, "fibers", "--type", "B", "--n", "2", "--m", "1")
    assert code == 0
    assert len(out.strip().splitlines()) == 8
    assert "MISMATCH" not in out


def test_fibers_all_sigmas_show_vectors_under_each_line(capsys):
    _, plain, _ = run(capsys, "fibers", "--type", "B", "--n", "2", "--m", "1")
    code, out, _ = run(capsys, "fibers", "--type", "B", "--n", "2", "--m", "1", "--vectors")
    assert code == 0
    sigma_lines = [line for line in out.splitlines() if line.startswith("sigma=")]
    assert sigma_lines == plain.splitlines()
    shown = []
    for line in out.splitlines():
        if line.startswith("sigma="):
            sigma = SignedPermutation.parse(line.split()[0][len("sigma="):])
        else:
            assert line.startswith("  ")
            v = parse_vector(line)
            assert phi(v) == sigma
            shown.append(v)
    assert sorted(shown) == sorted(enumerate_vectors(2, 1))


@pytest.mark.parametrize("vectors", [False, True], ids=["plain", "vectors"])
@pytest.mark.parametrize(
    "group,n", [("B", 2), ("D", 3), ("B", 5)], ids=["B", "D", "B5"]
)
def test_fibers_all_sigma_json_is_the_dumped_list_of_reports(capsys, group, n, vectors):
    # B5 streams 3,840 reports
    argv = ["fibers", "--type", group, "--n", str(n), "--m", "1", "--format", "json"]
    code, out, _ = run(capsys, *argv, *(["--vectors"] if vectors else []))
    assert code == 0
    payload = []
    for r in fiber_reports(group, n, 1):
        d = r.to_json_dict()
        if not vectors:
            del d["vectors"]
        payload.append(d)
    # out == json.dumps(payload) + "\n", item by item: a failing == on the
    # whole of B5's 1 MB makes pytest diff it for minutes; ", {" only ever
    # separates two items
    expected = [json.dumps(d) for d in payload]
    items = out[1:-2].split(", {")
    items[1:] = ["{" + item for item in items[1:]]
    first = next((i for i, pair in enumerate(zip(items, expected)) if pair[0] != pair[1]), None)
    assert first is None, f"the first differing report is at index {first}"
    assert (out[:1], out[-2:], len(items)) == ("[", "]\n", len(expected))


@pytest.mark.parametrize("vectors", [False, True], ids=["plain", "vectors"])
@pytest.mark.parametrize("group", ["B", "D"])
def test_fibers_all_sigma_text_is_built_field_by_field(capsys, group, vectors):
    for m in range(3):
        argv = ["fibers", "--type", group, "--n", "4", "--m", str(m)] + (["--vectors"] if vectors else [])
        code, out, _ = run(capsys, *argv)
        assert code == 0
        lines = []
        for r in fiber_reports(group, 4, m):
            status = "ok" if r.passed else "MISMATCH"
            sigma = ",".join(map(str, r.sigma.window))
            lines.append(f"sigma={sigma} m={r.m} expected={r.expected_size} actual={r.oracle_size} {status}\n")
            if vectors:
                lines += ["  " + ",".join(map(str, v)) + "\n" for v in r.vectors]
        assert out == "".join(lines)


@pytest.mark.parametrize("sigma,letters", [("1", range(1001)), ("-1", range(-1000, 0))], ids=["plus", "minus"])
def test_fibers_print_letters_outside_the_letter_table(capsys, sigma, letters):
    argv = ["fibers", "--type", "B", "--n", "1", "--m", "1000", "--sigma", sigma]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    head, *shown = out.splitlines()
    assert head == f"sigma={sigma} m=1000 expected={len(letters)} actual={len(letters)} ok"
    assert sorted(shown, key=lambda line: int(line)) == [f"  {a}" for a in letters]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert sorted(json.loads(out)["vectors"]) == [[a] for a in letters]


# SHA-256 of the --format json output of verify on grids with both m < n and m >= n, and of
# missing, recorded from reports that stored each term and census count rather than deriving them
JSON_DIGESTS = {
    "verify --identity worpitzky-a --n-range 1..6 --m-range 0..8 --format json":
        "eaeda2e4c62074234e6654dd766787a151f72d4cc7e2b146e5476f444ae38ab8",
    "verify --identity worpitzky-b --n-range 1..4 --m-range 0..5 --format json":
        "a2fdcfbeed6a09e7c0af1b84f15cb9fc0db39e0df67ddd2cb18f4654c8e3715c",
    "verify --identity worpitzky-d --n-range 2..7 --m-range 0..9 --format json":
        "e73e3ca8a295acd692c1ddbb41269de6fa7a8e382514aa6982f394762ed8adbe",
    "verify --identity balance-d --n-range 2..4 --m-range 0..5 --format json":
        "af6272f6b6301b28353b6e19246b590331e951e2af01606aba079ee33e543caa",
    "verify --identity erratum-d --n-range 2..7 --m-range 0..9 --format json":
        "03bdcd53ee40ed1b40dc5f2687cfe3a7ec63e07b7f69ec89354f95133df1fdb9",
    "missing --n 4 --m 2 --format json":
        "0665625e17d6fb57d70c53a3d228c4715ef5eec5c4473be5953a0e2b78a26b1d",
}


@pytest.mark.parametrize("command", JSON_DIGESTS)
def test_json_output_matches_the_recorded_digest(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == JSON_DIGESTS[command]


def test_fibers_workload_output_matches_the_bench_goldens(capsys):
    # the bytes of the benchmark's fibers commands, checked here as well
    with open(Path(__file__).resolve().parents[1] / "bench" / "goldens.json", encoding="utf-8") as f:
        goldens = {command: digest for command, digest in json.load(f).items() if command.startswith("fibers ")}
    assert len(goldens) == 3
    for command, digest in goldens.items():
        code, out, _ = run(capsys, *command.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


def test_fibers_exit_code_counts_every_report(capsys, monkeypatch):
    # one failing report in the middle of the stream fails the run, and the
    # reports after it are still printed; the second item of B_2's first
    # block, -1,2, has the nonzero law C(2 + 1 - 1, 2) = 1 at m = 1, and the
    # count oracle is made to read one vector more on it
    real = map_d.fiber_counts

    def one_more(*args):
        counts = real(*args)
        counts[(-1, 2)] += 1
        return counts

    monkeypatch.setattr(map_d, "fiber_counts", one_more)
    code, out, _ = run(capsys, "fibers", "--type", "B", "--n", "2", "--m", "1", "--format", "json")
    assert code == 1
    assert [d["pass"] for d in json.loads(out)] == [True, False] + [True] * 6
    assert json.loads(out)[1] == {"type": "B", "sigma": "-1,2", "m": 1, "expected": 1, "actual": 2, "pass": False}


@pytest.mark.parametrize("group", ["B", "D"])
def test_fibers_exit_code_counts_a_failed_empty_law(capsys, monkeypatch, group):
    # one vector counted on -1,-2, whose law C(2 + 1 - 2, 2) is 0 at m = 1
    real = map_d.fiber_counts

    def one_more(*args):
        counts = real(*args)
        counts[(-1, -2)] += 1
        return counts

    monkeypatch.setattr(map_d, "fiber_counts", one_more)
    code, out, _ = run(capsys, "fibers", "--type", group, "--n", "2", "--m", "1", "--format", "json")
    assert code == 1
    failed = [d for d in json.loads(out) if not d["pass"]]
    assert failed == [{"type": group, "sigma": "-1,-2", "m": 1, "expected": 0, "actual": 1, "pass": False}]


def fiber_show(fmt, group, m, vectors):
    """A report as ``map_b.fiber_writer`` writes it, every field from the report."""
    head, rest = map_b.fiber_writer(fmt, group, m, vectors)
    return lambda r: head + r.sigma.format() + rest(r.expected_size, r.oracle_size, r.passed, r.vectors)


@pytest.mark.parametrize("vectors", [False, True], ids=["plain", "vectors"])
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("group", ["B", "D"])
def test_fibers_law_zero_template_is_the_writer_output(capsys, group, fmt, vectors):
    # B_5 at m = 3 with vectors: most windows have a nonzero law there
    grid = [(m, range(1 if group == "B" else 2, 5)) for m in range(3)] + [(3, [5])] * (group == "B" and vectors)
    for m, ns in grid:
        show = fiber_show(fmt, group, m, vectors)
        lo, rest = map_b.fiber_writer(fmt, group, m, vectors)
        hi = rest(0, 0, True, ())
        law_zero = 0
        for n in ns:
            reports = list(fiber_reports(group, n, m))
            for r in reports:
                if r.expected_size == 0 and r.passed:
                    law_zero += 1
                    assert lo + r.sigma.format() + hi == show(r)
            # the all-sigma command writes its bare law-0 windows as the same lines
            argv = ["fibers", "--type", group, "--n", str(n), "--m", str(m), "--format", fmt]
            code, out, _ = run(capsys, *argv, *(["--vectors"] if vectors else []))
            assert code == 0
            lines = list(map(show, reports))
            assert out == ("[" + ", ".join(lines) + "]\n" if fmt == "json" else "".join(lines))
        assert law_zero > 0


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("group", ["B", "D"])
def test_fibers_a_failed_law_zero_window_is_written_in_full(capsys, monkeypatch, group, fmt):
    # both windows have the law C(3 + 1 - 2, 3) = 0 at m = 1: -1,-2,3 sits in
    # the middle of the first block, -3,2,-1 in the last block; one vector
    # more is counted on each
    failing = [(-1, -2, 3), (-3, 2, -1)]
    real = map_d.fiber_counts

    def one_more(*args):
        counts = real(*args)
        for w in failing:
            counts[w] += 1
        return counts

    argv = ["fibers", "--type", group, "--n", "3", "--m", "1", "--format", fmt]
    monkeypatch.setattr(map_d, "fiber_counts", one_more)
    # a counted law-0 window makes its permutation's block report every window
    rows, blocks = map_d.fiber_blocks(group, 3, 1)
    blocks = [[r.sigma.window for r in reports] for _, _, reports in blocks]
    assert failing[0] in blocks[0][1:-1] and failing[1] in blocks[-1]
    assert len(blocks[0]) == len(blocks[-1]) == len(next(iter(rows.values()))[0])
    code, out, _ = run(capsys, *argv)
    assert code == 1
    show = fiber_show(fmt, group, 1, False)
    reports = list(fiber_reports(group, 3, 1))
    assert [r.sigma.window for r in reports if not r.passed] == failing
    if fmt == "json":
        assert out == "[" + ", ".join(map(show, reports)) + "]\n"
        assert [d["sigma"] for d in json.loads(out) if not d["pass"]] == ["-1,-2,3", "-3,2,-1"]
    else:
        assert out == "".join(map(show, reports))
        assert [line for line in out.splitlines() if "MISMATCH" in line] == [
            "sigma=-1,-2,3 m=1 expected=0 actual=1 MISMATCH",
            "sigma=-3,2,-1 m=1 expected=0 actual=1 MISMATCH",
        ]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_fibers_a_block_of_nonzero_laws_only_is_its_template(capsys, fmt):
    # at m = 3 every window of B_3 has des <= 3 = m, so no block has a law-0
    # window and each is its pattern's template with p's letters put in
    rows, _ = map_d.fiber_blocks("B", 3, 3)
    assert all(all(laws) for _, laws in rows.values())
    code, out, _ = run(capsys, "fibers", "--type", "B", "--n", "3", "--m", "3", "--format", fmt)
    assert code == 0
    lines = list(map(fiber_show(fmt, "B", 3, False), fiber_reports("B", 3, 3)))
    assert out == ("[" + ", ".join(lines) + "]\n" if fmt == "json" else "".join(lines))


def test_fibers_a_failed_nonzero_law_report_is_written_in_full(capsys, monkeypatch):
    # the second report of B_3's third block (p = 2,1,3) has a nonzero law at
    # m = 1, and the count oracle is made to read one vector more on it; its
    # text comes from the report, the rest of the block from the template
    passing = list(fiber_reports("B", 3, 1))
    real = map_d.fiber_counts

    def one_more(*args):
        counts = real(*args)
        counts[(-2, 1, 3)] += 1
        return counts

    monkeypatch.setattr(map_d, "fiber_counts", one_more)
    code, out, _ = run(capsys, "fibers", "--type", "B", "--n", "3", "--m", "1")
    assert code == 1
    reports = list(fiber_reports("B", 3, 1))
    (failed,) = [r for r in reports if not r.passed]
    assert failed.sigma.window == (-2, 1, 3) and reports.index(failed) == 2 * 8 + 1
    assert reports == [failed if r.sigma == failed.sigma else r for r in passing]
    assert out == "".join(map(fiber_show("text", "B", 1, False), reports))
    assert [line for line in out.splitlines() if "MISMATCH" in line] == [f"sigma={failed.sigma} m=1 expected=1 actual=2 MISMATCH"]


@pytest.mark.parametrize("group", ["B", "D"])
def test_fibers_a_failure_past_a_patterns_first_permutation_stays_in_its_block(capsys, monkeypatch, group):
    # a descent pattern's first block checks every permutation with the pattern at once;
    # 2,4,1,3 is the fourth of the five with the pattern of 1,3,2,4, and its window
    # of plus signs has the law C(4 + 1 - 1, 4) = 1 at m = 1 in both types
    sigma, argv = (2, 4, 1, 3), ["fibers", "--type", group, "--n", "4", "--m", "1"]
    pattern = [p for p in itertools.permutations(range(1, 5)) if [a > b for a, b in zip(p, p[1:])] == [False, True, False]]
    assert pattern.index(sigma) == 3
    code, clean, _ = run(capsys, *argv)
    line = "sigma=2,4,1,3 m=1 expected=1 actual=1 ok\n"
    assert code == 0 and clean.count(line) == 1
    earlier = clean[: clean.index(line)]
    assert "sigma=1,3,2,4 " in earlier and "sigma=2,3,1,4 " in earlier
    real = map_d.fiber_counts

    def one_more(*args):
        counts = real(*args)
        counts[sigma] += 1
        return counts

    # a wrong count changes that report alone, the one block that reports
    monkeypatch.setattr(map_d, "fiber_counts", one_more)
    assert [p for _, p, reports in map_d.fiber_blocks(group, 4, 1)[1] if reports] == [sigma]
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert out == clean.replace(line, "sigma=2,4,1,3 m=1 expected=1 actual=2 MISMATCH\n")
    # an image table in which sigma's one vector maps elsewhere, its count left as it is:
    # the error names the vector and sigma at sigma's block, after every earlier block
    (v,) = fiber_vectors(group, SignedPermutation(sigma), 1)
    rank = sum((a + 1) * 3 ** (3 - i) for i, a in enumerate(v))

    def one_moved(*args):
        counts = real(*args)
        args[3][rank] = (1, 2, 3, 4)
        return counts

    monkeypatch.setattr(map_d, "fiber_counts", one_moved)
    message = rf"decoded vector \({', '.join(map(str, v))},?\) does not map back to 2,4,1,3 \(got \(1, 2, 3, 4\)\)"
    with pytest.raises(ArithmeticError, match=message):
        main(argv)
    assert capsys.readouterr().out == earlier


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_fibers_a_faulty_plan_and_a_counted_law_zero_window_write_one_whole_block(capsys, monkeypatch, fmt):
    # 1,2,3 is the only permutation with its pattern; its window of plus signs, the only
    # window with no descent, gets a plan short of one chain, and its window -1,-2,3
    # (law C(3 + 1 - 2, 3) = 0 at m = 1) one counted vector: both fail in one block
    # that reports every window, and no other block reports
    argv = ["fibers", "--type", "B", "--n", "3", "--m", "1", "--format", fmt]
    passing = list(fiber_reports("B", 3, 1))
    chains, real = map_d.decode_abs_chains, map_d.fiber_counts

    def short(descents, n, m):
        decoded = list(chains(descents, n, m))
        return iter(decoded[:-1] if descents == () else decoded)

    def one_more(*args):
        counts = real(*args)
        counts[(-1, -2, 3)] += 1
        return counts

    monkeypatch.setattr(map_d, "decode_abs_chains", short)
    monkeypatch.setattr(map_d, "fiber_counts", one_more)
    rows, blocks = map_d.fiber_blocks("B", 3, 1)
    reported = [(p, len(reports)) for _, p, reports in blocks if reports]
    assert reported == [((1, 2, 3), len(next(iter(rows.values()))[0]))]
    code, out, _ = run(capsys, *argv)
    assert code == 1
    reports = list(fiber_reports("B", 3, 1))
    assert [r.sigma.window for r in reports if not r.passed] == [(1, 2, 3), (-1, -2, 3)]
    assert [r for r in reports if r.passed] == [r for r in passing if r.sigma.window not in ((1, 2, 3), (-1, -2, 3))]
    show = fiber_show(fmt, "B", 1, False)
    assert out == ("[" + ", ".join(map(show, reports)) + "]\n" if fmt == "json" else "".join(map(show, reports)))
    if fmt == "text":
        assert [line for line in out.splitlines() if "MISMATCH" in line] == [
            "sigma=1,2,3 m=1 expected=4 actual=4 MISMATCH",
            "sigma=-1,-2,3 m=1 expected=0 actual=1 MISMATCH",
        ]


@pytest.mark.parametrize("fault", ["repeat", "drop"])
def test_fibers_a_faulty_plan_fails_its_windows_without_vectors(capsys, monkeypatch, fault):
    # a decoder that puts the first chain in place of the last, or drops the
    # last, fails every window whose law is above 1 (repeat) or 0 (drop); the
    # all-sigma text without --vectors writes each such report in full
    chains = map_d.decode_abs_chains

    def faulty(descents, n, m):
        decoded = list(chains(descents, n, m))
        return iter(decoded[:-1] + decoded[:1] if fault == "repeat" else decoded[:-1])

    monkeypatch.setattr(map_d, "decode_abs_chains", faulty)
    code, out, _ = run(capsys, "fibers", "--type", "D", "--n", "3", "--m", "2")
    reports = list(fiber_reports("D", 3, 2))
    assert code == 1
    assert out == "".join(map(fiber_show("text", "D", 2, False), reports))
    assert sum(not r.passed for r in reports) == sum(r.expected_size > (fault == "repeat") for r in reports) > 0


@pytest.mark.parametrize("n", [8, 9, 10])
@pytest.mark.parametrize("group", ["B", "D"])
def test_fibers_all_sigma_stops_below_the_placeholder_range(capsys, monkeypatch, group, n):
    # the writer's placeholders chr(1)..chr(n) must not reach chr(10), "\n":
    # the step bound refuses these first, and cmd_fibers itself refuses n > 9
    def no_work(*args, **kwargs):
        raise AssertionError("a refused command started work")

    monkeypatch.setattr(map_d, "fiber_blocks", no_work)
    argv = ["fibers", "--type", group, "--n", str(n), "--m", "0"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if n > 9:
        with pytest.raises(cli.UsageError, match="n <= 9"):
            cli.cmd_fibers(cli.parse_args(argv))


@pytest.mark.parametrize(
    "group,n,sigma", [("B", "2", "-2,1"), ("D", "3", "-1,2,-3")], ids=["B", "D"]
)
def test_fibers_single_sigma_equals_its_all_sigma_entry(capsys, group, n, sigma):
    # the --sigma report streams the vector space, the all-sigma one reads the
    # whole-space oracle: both routes must give the same report
    argv = ["fibers", "--type", group, "--n", n, "--m", "1", "--format", "json"]
    code, one, _ = run(capsys, *argv, "--sigma", sigma)
    assert code == 0
    code, every, _ = run(capsys, *argv, "--vectors")
    assert code == 0
    (entry,) = [d for d in json.loads(every) if d["sigma"] == sigma]
    assert json.loads(one) == entry


@pytest.mark.parametrize(
    "argv",
    [
        "--type B --n 9 --m 1",
        "--type D --n 8 --m 0",
        "--type B --n 4 --m 60 --sigma 1,2,3,4",
        "--type B --n 12 --m 1 --format json",
        "--type D --n 1000000000 --m 1 --sigma 1,2",
        "--type B --n 1000000000 --m 0",
        # n past a C ssize_t, with and without --sigma
        "--type B --n 999999999999999999999 --m 1",
        "--type D --n 999999999999999999999 --m 1",
        "--type B --n 999999999999999999999 --m 1 --sigma 1",
        "--type D --n 999999999999999999999 --m 1 --sigma 1,2",
    ],
)
def test_fibers_refuses_work_past_its_bounds_before_any_report(capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("a refused command started work")

    monkeypatch.setattr(map_d, "fiber_report", no_work)
    monkeypatch.setattr(map_d, "fiber_reports", no_work)
    monkeypatch.setattr(map_d, "fiber_blocks", no_work)
    monkeypatch.setattr(map_d, "fiber_counts", no_work)
    code, out, err = run(capsys, "fibers", *argv.split())
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_fibers_type_d_sigma_outside_dn_is_usage_error(capsys):
    code, out, err = run(
        capsys, "fibers", "--type", "D", "--n", "3", "--m", "1", "--sigma", "-1,2,3"
    )
    assert code == 2 and out == ""
    assert err == "error: sigma must have an even number of negative entries\n"


def test_fiber_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "fibers", "--type", "B", "--n", "2", "--m", "2",
        "--sigma", "-2,-1", "--format", "json",
    )
    assert code == 0
    dump = json.loads(out)
    # re-parse the dump and re-verify: same pass verdict
    sigma = SignedPermutation.parse(dump["sigma"])
    vectors = {tuple(v) for v in dump["vectors"]}
    assert dump["expected"] == fiber_size("B", sigma, dump["m"])
    assert dump["actual"] == len(vectors)
    assert vectors == set(fiber_vectors("B", sigma, dump["m"]))
    assert all(phi(v, dump["m"]) == sigma for v in vectors)
    assert dump["pass"] is True


def test_missing_text(capsys):
    code, out, _ = run(capsys, "missing", "--n", "2", "--m", "1")
    assert code == 0
    assert "total: count=4 weight=2+2q" in out
    assert out.strip().endswith("pass")


def test_missing_json(capsys):
    code, out, _ = run(capsys, "missing", "--n", "3", "--m", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["cases"]["case1"]["count"] == 4
    assert data["closed_forms"]["total"] == 12
    assert data["pass"] is True


@pytest.mark.parametrize(
    "argv",
    [
        "missing --n 1000000000 --m 1",
        "missing --n 1000000000 --m 0",
        "verify --identity balance-d --n-range 2..50 --m-range 0..1000000000000",
        "verify --identity worpitzky-a --n-range 2..2 --m-range 0..100000",
        "verify --identity worpitzky-d --n-range 2..2 --m-range 0..100000",
        "verify --identity worpitzky-d --n-range 2..2 --m-range 10000000..10000010",
        "verify --identity erratum-d --n-range 2..2 --m-range 0..100000",
    ],
)
def test_sweeps_past_the_bound_are_refused_before_any_work(capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("a refused command started work")

    for fn in ("missing_census", "verify_balance_d_q", "verify_worpitzky_d_q1", "erratum_report_d"):
        monkeypatch.setattr(map_d, fn, no_work)
    for fn in ("verify_worpitzky_a", "verify_worpitzky_b"):
        monkeypatch.setattr(map_b, fn, no_work)
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        "missing --n 14 --m 4",
        "verify --identity worpitzky-b --n-range 14..14 --m-range 4..4",
        "missing --n 2 --m 1580",
        "missing --n 3 --m 107",
        "verify --identity erratum-d --n-range 50..50 --m-range 0..998",
        "verify --identity balance-d --n-range 2..14 --m-range 1..1",
        # 5^9 vectors in one image pass, about 2-3 s
        "fibers --type B --n 9 --m 2 --sigma 1,2,3,4,5,6,7,8,9",
    ],
)
def test_grids_the_folds_make_cheap_are_admitted(argv):
    # (2m+1)^n is 2.3e13 vectors at (14, 4), but the folds take far fewer steps
    cli._check_args(cli.parse_args(argv.split()))


@pytest.mark.parametrize(
    "argv,steps",
    [
        # fold steps, L = 2m+1 times the keys after 0..n-1 columns, plus
        # n (200 + m) // 4 report steps per (n, m) cell
        ("missing --n 2 --m 1", 3 * (1 + 3) + 100),
        ("verify --identity worpitzky-b --n-range 1..2 --m-range 0..1", (1 + 50) + (3 + 50) + (2 + 100) + (3 * (1 + 3) + 100)),
        ("verify --identity balance-d --n-range 2..3 --m-range 1..1", (3 * (1 + 3) + 100) + (3 * (1 + 3 + 9) + 150)),
        ("verify --identity worpitzky-a --n-range 1..1 --m-range 0..3", 4 * 50),
        ("verify --identity worpitzky-d --n-range 2..3 --m-range 1..2", 100 + 101 + 150 + 151),
        ("verify --identity erratum-d --n-range 2..2 --m-range 5..5", 102),
        # fibers: all-sigma 36 (B) or 20 (D) per vector plus 2 per element of
        # B_n or D_n; --sigma 4 per vector plus 36 per vector of C(n+m, n)
        ("fibers --type B --n 2 --m 1", 36 * 3**2 + 2 * 8),
        ("fibers --type D --n 2 --m 1", 20 * 3**2 + 2 * 4),
        ("fibers --type B --n 2 --m 1 --sigma 2,-1", 4 * 3**2 + 36 * 3),
        ("fibers --type D --n 3 --m 1 --sigma 1,-2,-3", 4 * 3**3 + 36 * 4),
    ],
)
def test_the_step_bound_sums_the_steps_of_the_grid(capsys, monkeypatch, argv, steps):
    monkeypatch.setattr(cli, "MAX_STEPS", steps)
    assert run(capsys, *argv.split())[0] == 0
    monkeypatch.setattr(cli, "MAX_STEPS", steps - 1)
    code, out, err = run(capsys, *argv.split())
    name = argv.split()[2 if argv.startswith("verify") else 0]
    assert code == 2 and out == ""
    assert err == f"error: {name} takes {steps} steps or more, at most {steps - 1}\n"


def test_balance_d_at_n_50_runs_end_to_end(capsys):
    # a brute q-weight sweep of 3^50 vectors, folded in about 0.3 s
    code, out, err = run(capsys, "verify", "--identity", "balance-d", "--n-range", "50..50", "--m-range", "1..1")
    assert code == 0 and err == ""
    assert out.startswith("balance-d n=50 m=1: PASS  lhs=") and out.count("\n") == 1


# small ints most often, then huge and negative ones and text no int parses from
_small = st.integers(-1, 6)
_ints = st.one_of(_small, _small, _small, st.integers(-10**40, 10**40))
_int_texts = st.one_of(*[_ints.map(str)] * 3, st.sampled_from(["", "x", "1.5", "-", "1e3", "9" * 5000]))
_ranges = st.one_of(
    st.tuples(_ints, _ints).map(lambda ab: "{}..{}".format(*sorted(ab))),
    st.tuples(_ints, _ints).map(lambda ab: f"{ab[0]}..{ab[1]}"),  # empty where a > b
    st.sampled_from(["", "..", "1..", "..2", "a..b", "1..2..3", "5"]),
)
_vectors = st.one_of(
    st.lists(_ints, max_size=6).map(lambda v: ",".join(map(str, v))),
    st.sampled_from(["1,,2", "x", ",", "1, -2", "--1"]),
)


@st.composite
def _argvs(draw):
    """An argv of one subcommand: its choices valid, its numbers, ranges and
    vectors drawn valid or not; a flag spelled out or by a unique prefix, its
    value the next token or joined by "="."""
    def spell(name):
        others = [other for other in [*cli.COMMANDS[command].flags, "--help"] if other != name]
        least = next(k for k in range(3, len(name) + 1) if not any(other.startswith(name[:k]) for other in others))
        return name[:draw(st.integers(least, len(name)))] if draw(st.booleans()) else name

    def flag(name, values, optional=False):
        if optional and draw(st.booleans()):
            return []
        name, value = spell(name), draw(values)
        return [f"{name}={value}"] if draw(st.booleans()) else [name, value]

    def switch(name):
        return [spell(name)] if draw(st.booleans()) else []

    signed, text_json = st.sampled_from("BD"), st.sampled_from(["text", "json"])
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    if command == "eulerian":
        rest = flag("--type", st.sampled_from("ABD")) + flag("--n", _int_texts) + switch("--q")
        rest += flag("--format", st.sampled_from(["text", "json", "csv"]), True)
    elif command == "verify":
        rest = flag("--identity", st.sampled_from(list(cli.IDENTITIES)))
        rest += flag("--n-range", _ranges) + flag("--m-range", _ranges) + flag("--jobs", _int_texts, True)
        rest += flag("--format", st.sampled_from(["text", "json", "csv"]), True)
    elif command == "map":
        rest = flag("--type", signed) + flag("--m", _int_texts) + flag("--vector", _vectors)
    elif command == "fibers":
        rest = flag("--type", signed) + flag("--n", _int_texts) + flag("--m", _int_texts)
        rest += flag("--sigma", _vectors, True) + switch("--vectors") + flag("--format", text_json, True)
    elif command == "missing":
        rest = flag("--n", _int_texts) + flag("--m", _int_texts) + flag("--jobs", _int_texts, True)
        rest += flag("--format", text_json, True)
    else:
        rest = flag("--seq", st.sampled_from(sorted(oeis.SEQUENCES))) + flag("--max-n", _int_texts)
        rest += flag("--format", text_json, True)
    return [command, *rest]


@settings(max_examples=300, deadline=None)
@given(argv=_argvs())
def test_any_argv_exits_0_1_or_2_with_one_error_line_and_starts_no_process(argv):
    # test-local bounds, so that every admitted draw is cheap
    started = []

    def no_process(*args, **kwargs):
        started.append(args)
        raise AssertionError("a command started a process")

    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        mp.setattr(cli, "MAX_STEPS", 2000)
        for module, name in ((os, "fork"), (os, "posix_spawn"), (os, "posix_spawnp"), (subprocess, "Popen")):
            mp.setattr(module, name, no_process)
        mp.setattr(multiprocessing.process.BaseProcess, "start", no_process)
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2) and started == []
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    assert elapsed < (0.5 if code == 2 else 5)


def test_a_closed_stdout_exits_without_a_traceback():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "worpitzky.cli", "fibers", "--type", "B", "--n", "5", "--m", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    # about 190 kB of reports, more than a pipe buffers, so a write meets the closed pipe
    assert proc.stdout.readline().startswith(b"sigma=")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    # no traceback, and no "Exception ignored" line from the exit-time flush
    assert err == ""


def test_importing_the_cli_loads_no_dataclasses_inspect_csv_or_json():
    # the JSON writers import json when they run; the modules a bare
    # interpreter already holds (site hooks) do not count
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))

    def modules_after(statement):
        argv = [sys.executable, "-c", f"import sys; {statement}; print(*sys.modules)"]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=True, timeout=60)
        return set(proc.stdout.split())

    added = modules_after("from worpitzky import cli") - modules_after("pass")
    assert "worpitzky.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect", "csv", "json"}), sorted(added)


def test_importing_the_cli_loads_neither_argparse_nor_gettext():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    statement = "import sys, worpitzky.cli; print(*sys.modules)"
    proc = subprocess.run([sys.executable, "-c", statement], env=env, capture_output=True, text=True, check=True, timeout=60)
    loaded = set(proc.stdout.split())
    assert "worpitzky.cli" in loaded and loaded.isdisjoint({"argparse", "gettext"})


_EULERIAN = ["eulerian", "--type", "B", "--n", "2"]


@pytest.mark.parametrize(
    "argv,error",
    [
        ([], "the following arguments are required: command"),
        (["euler"], "argument command: invalid choice: 'euler' (choose from 'eulerian', 'verify', "),
        ([*_EULERIAN, "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        ([*_EULERIAN, "a\nb"], "unrecognized arguments: 'a\\nb'"),
        # the empty prefix is the one the table leaves ambiguous
        ([*_EULERIAN, "--=1"], "ambiguous option: --=1 could match --type, --n, --q, --format, --help"),
        (_EULERIAN[:-1], "argument --n: expected one argument"),
        ([*_EULERIAN, "--q=1"], "argument --q: ignored explicit argument '1'"),
        (["eulerian", "--type", "B", "--n", "x"], "argument --n: invalid int value: 'x'"),
        (["eulerian", "--type", "B", "--n", "9" * 5000], "argument --n: invalid int value: '99999"),
        (["eulerian", "--type", "C", "--n", "2"], "argument --type: invalid choice: 'C' (choose from 'A', 'B', 'D')"),
        (["missing", "--jobs", "1"], "the following arguments are required: --n, --m"),
        (["verify", "--identity", "worpitzky-a", "--n-range", "1-2", "--m-range", "0..0"], "argument --n-range: expected A..B, got '1-2'"),
        (["verify", "--identity", "worpitzky-a", "--n-range", "1..1", "--m-range", "2..1"], "argument --m-range: empty range '2..1'"),
    ],
    ids=[
        "no-command", "unknown-command", "unknown-flag", "token-with-line-break", "ambiguous-prefix",
        "value-missing-at-end", "switch-given-value", "bad-int", "int-past-digit-limit", "bad-choice",
        "required-flag-missing", "malformed-range", "empty-range",
    ],
)
def test_each_kind_of_usage_error_is_one_error_line_and_exit_2(capsys, argv, error):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {error}") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,spelled_out",
    [
        ("verify --iden worpitzky-b --n 2..3 --m 0..1", "verify --identity worpitzky-b --n-range 2..3 --m-range 0..1"),
        ("oeis-check --s A262226 --max 4 --f json", "oeis-check --seq A262226 --max-n 4 --format json"),
        ("eulerian --type=D --n=4 --q --format=json", "eulerian --type D --n 4 --q --format json"),
        ("eulerian --type A --n 9 --type B --q --n 3 --q", "eulerian --type B --n 3 --q"),
        ("map --type D --m 2 --vector -2,0,0", "map --type D --m 2 --vector=-2,0,0"),
        ("fibers --type B --n 2 --m 1 --sigma -2,1", "fibers --type B --n 2 --m 1 --sigma=-2,1"),
        ("verify --identity worpitzky-a --n-range -1..2 --m-range 0..1", "verify --identity worpitzky-a --n-range=-1..2 --m-range=0..1"),
    ],
)
def test_accepted_forms_equal_their_spelled_out_form(capsys, argv, spelled_out):
    got = run(capsys, *argv.split())
    assert got == run(capsys, *spelled_out.split())
    if "-1..2" in argv:  # the range parses, and the n floor refuses it
        assert got == (2, "", "error: need n >= 1 and m >= 0\n")
    else:
        assert got[0] == 0 and got[1] and got[2] == ""


def test_help_names_every_command_flag_and_choice(capsys):
    # the README's Usage lines are the synopses the table generates
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    usage = readme.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0].replace("\\\n", "")
    synopses = [" ".join(line.split()) for line in usage.splitlines()]
    code, out, err = run(capsys, "--help")
    assert code == 0 and err == ""
    assert len(synopses) == len(cli.COMMANDS) and all(synopsis in out.splitlines() for synopsis in synopses)
    for name, command in cli.COMMANDS.items():
        code, text, err = run(capsys, name, "-h")
        assert code == 0 and err == "" and command.help in out and command.help in text
        for flag, spec in command.flags.items():
            choices = spec.convert if isinstance(spec.convert, list) else []
            assert all(word in text for word in [flag, spec.help, *choices])
    # -h and any prefix of --help, before the error a later token would raise
    assert run(capsys, "-h") == run(capsys, "--he") == (0, out, "")
    assert run(capsys, "eulerian", "--n", "2", "--he", "--n", "x") == run(capsys, "eulerian", "-h")


def test_oeis_check_passes(capsys):
    for seq in ("A060187", "A262226"):
        code, out, _ = run(capsys, "oeis-check", "--seq", seq, "--max-n", "5")
        assert code == 0
        assert "MISMATCH" not in out


def test_oeis_check_mismatch_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1\n2 2\n3 1\n4 1\n5 99\n6 11\n7 1\n")
    code, out, _ = run(
        capsys, "oeis-check", "--seq", "A262226", "--max-n", "3",
        "--bfile", str(bad),
    )
    assert code == 1 and "MISMATCH" in out


def test_oeis_check_warns_when_the_bfile_head_does_not_align(capsys, tmp_path):
    foreign = tmp_path / "foreign.txt"
    foreign.write_text("".join(f"{i} 9\n" for i in range(1, 21)))
    code, out, err = run(
        capsys, "oeis-check", "--seq", "A262226", "--max-n", "2",
        "--bfile", str(foreign),
    )
    assert code == 1 and "MISMATCH" in out
    assert err == "warning: could not align data head, using fixture layout\n"


@pytest.mark.parametrize(
    "seq,max_n,error",
    [
        ("A060187", "51", "error: n must be <= 50\n"),
        ("A262226", "51", "error: n must be <= 50\n"),
    ],
)
def test_oeis_check_refuses_rows_past_the_bound_before_any_row(capsys, monkeypatch, tmp_path, seq, max_n, error):
    def no_row(n):
        raise AssertionError("a refused command built a row")

    for name in ("eulerian_row_b_q", "eulerian_row_d_q"):
        monkeypatch.setattr(oeis, name, no_row)
    bfile = tmp_path / "b.txt"
    bfile.write_text("".join(f"{i} 1\n" for i in range(1, 2000)))
    code, out, err = run(capsys, "oeis-check", "--seq", seq, "--max-n", max_n, "--bfile", str(bfile))
    assert code == 2 and out == "" and err == error


@pytest.mark.parametrize("seq", sorted(oeis.SEQUENCES))
def test_oeis_check_admits_rows_up_to_the_bound(seq):
    # every row up to MAX_ROW_N is admitted, 35 and past included
    for max_n in ("35", str(cli.MAX_ROW_N)):
        cli._check_args(cli.parse_args(["oeis-check", "--seq", seq, "--max-n", max_n]))


@pytest.mark.parametrize(
    "seq,order", [("A060187", lambda n: 2**n), ("A262226", lambda n: 2 ** (n - 1))], ids=["A060187", "A262226"]
)
def test_oeis_check_runs_rows_past_35_against_a_bfile(capsys, tmp_path, seq, order):
    # rows to n = 35 are built and checked end to end; each row sums to |B_n| or |D_n|
    spec = oeis.SEQUENCES[seq]
    rows = [spec.computed_row(n) for n in range(spec.min_n, 36)]
    assert [sum(row) for row in rows] == [order(n) * math.factorial(n) for n in range(spec.min_n, 36)]
    bfile = tmp_path / "b.txt"
    bfile.write_text("".join(f"{i} {v}\n" for i, v in enumerate((v for row in rows for v in row), 1)))
    code, out, err = run(capsys, "oeis-check", "--seq", seq, "--max-n", "35", "--bfile", str(bfile))
    lines = out.splitlines()
    assert code == 0 and err == "" and len(lines) == len(rows)
    assert lines[-1].startswith(f"{seq} n=35: ok reference=[1, ")


def test_oeis_check_missing_bfile_is_usage_error(capsys, tmp_path):
    missing = tmp_path / "absent.txt"
    code, out, err = run(
        capsys, "oeis-check", "--seq", "A060187", "--max-n", "3",
        "--bfile", str(missing),
    )
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read b-file") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["fibers", "--type", "B", "--n", "2", "--m", "1"],
        ["missing", "--n", "2", "--m", "1"],
        ["oeis-check", "--seq", "A060187", "--max-n", "3"],
    ],
    ids=["fibers", "missing", "oeis-check"],
)
def test_csv_is_offered_only_where_it_is_written(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "invalid choice: 'csv'" in err


def test_output_deterministic_across_jobs(capsys):
    args = ["verify", "--identity", "balance-d", "--n-range", "3..3",
            "--m-range", "1..2", "--format", "json"]
    code1, out1, _ = run(capsys, *args, "--jobs", "1")
    code2, out2, _ = run(capsys, *args, "--jobs", "3")
    assert code1 == code2 == 0
    assert out1 == out2


def test_sweep_json_is_identical_at_one_and_two_jobs(capsys):
    for argv in (
        ["missing", "--n", "4", "--m", "2"],
        ["verify", "--identity", "balance-d", "--n-range", "2..4", "--m-range", "0..2"],
        ["verify", "--identity", "worpitzky-b", "--n-range", "1..4", "--m-range", "0..2"],
    ):
        code1, out1, _ = run(capsys, *argv, "--format", "json", "--jobs", "1")
        code2, out2, _ = run(capsys, *argv, "--format", "json", "--jobs", "2")
        assert code1 == code2 == 0
        assert out1 == out2


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_a_usage_error(capsys, jobs):
    code, out, err = run(capsys, "missing", "--n", "3", "--m", "1", "--jobs", jobs)
    assert code == 2 and out == ""
    assert err == f"error: need a job count >= 1, got {jobs}\n"


def test_eulerian_row_bound(capsys):
    code, out, err = run(capsys, "eulerian", "--type", "D", "--n", "51")
    assert code == 2 and out == ""
    assert err == "error: n must be <= 50\n"


def test_jobs_env_var_default(capsys, monkeypatch):
    # the sweeps run in one process and read no job count from the
    # environment, so even a value that is no count changes nothing
    monkeypatch.setenv("WORPITZKY_JOBS", "abc")
    code, out, _ = run(capsys, "missing", "--n", "3", "--m", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["pass"] is True
