"""Command-line front end.

Subcommands: ``eulerian`` (triangle rows), ``verify`` (identity checks over
an (n, m) grid), ``map`` (vector to permutation), ``fibers`` (fiber
reports), ``missing`` (missing-vector census), ``oeis-check`` (b-file
cross-check).  Exit codes: 0 pass, 1 verification failure, 2 usage error.

Output formats: plain text (default) and JSON; ``eulerian`` and ``verify``
also write CSV.  ``fibers`` writes through ``map_b.fiber_writer``, a law-0
window of ``map_d.fiber_blocks`` from a template of its (0, 0, pass) text.
The vector sweeps of ``verify`` and ``missing`` run in one pass in this
process; their --jobs flag is still accepted and checked (>= 1), and has no
effect.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate, repeat
from math import factorial
from operator import attrgetter, itemgetter

from . import map_b, map_d, oeis
from .eulerian import MAX_ROW_N, eulerian_row
from .signed_perm import SignedPermutation
from .sigma_vectors import format_vector, parse_vector


class UsageError(Exception):
    pass


# Per identity: its report call (n, m), made through the module attribute so
# a patched or rebound library name is the one called; its least n; whether
# it sweeps the vector space of each (n, m) cell; its rows cost n^4 / row_divisor.
Identity = namedtuple("Identity", "report least_n sweeps row_divisor")
IDENTITIES = {
    "worpitzky-a": Identity(lambda n, m: map_b.verify_worpitzky_a(n, m), 1, False, 8),
    "worpitzky-b": Identity(lambda n, m: map_b.verify_worpitzky_b(n, m), 1, True, 1),
    "worpitzky-d": Identity(lambda n, m: map_d.verify_worpitzky_d_q1(n, m), 2, False, 1),
    "balance-d": Identity(lambda n, m: map_d.verify_balance_d_q(n, m), 2, True, 1),
    "erratum-d": Identity(lambda n, m: map_d.erratum_report_d(n, m), 2, False, 1),
}

# Work bounds of `fibers`, measured as whole commands on a 2-CPU Xeon with
# Python 3.11.7 (a host whose speed varied by up to 2x): a --sigma report
# counts about 0.6 M vectors/s (5^8 vectors: 0.61-0.70 s); all-sigma reports
# run at about 0.9 M/s where most laws are 0 (B_7 at m=1: 0.64-0.74 s) and
# 0.4 M/s at m=2 with JSON vectors, the largest admitted (1.5-1.8 s); B_8
# would be 16 times B_7.
MAX_FIBER_VECTORS = 5 * 10**5  # (2m+1)^n
MAX_FIBER_REPORTS = 10**6  # |B_n| = 2^n n!, |D_n| = 2^(n-1) n!

# Work bound of `missing` and of the worpitzky-b and balance-d grids.  Folds
# step once per (n-1)-prefix key and last letter, so small n is the slowest:
# whole `missing` commands near the bound took about 9 s at n = 2 (m = 1580,
# the slowest admitted sweep), 8 s at n = 3 (m = 107), 1 s at n = 4 and
# under 0.25 s from n = 8 on (`missing --n 10 --m 2`: 0.13 s).
MAX_SWEEP_VECTORS = 10**7  # (2m+1)^n, summed over a verify grid

# Work bound of the Eulerian rows of a verify grid or of oeis-check, one per
# distinct n: on the same host the transfer DP builds a B or D row in about
# 0.9 us * n^4 (n = 50: B 5.5-5.8 s, D 5.3-5.9 s) and an A row in an eighth of
# that, so 10^7 steps take up to about 9 s; every single row (n = 50: 6.25 *
# 10^6 steps) and the whole worpitzky-a grid 1..50 (8.2 * 10^6) stay admitted.
MAX_ROW_STEPS = 10**7  # n^4 per B or D row, n^4 / 8 per A row

# Work bound of a verify grid's reports past its rows: a worpitzky-d or
# erratum-d report sums m powers (bernoulli.power_sum) and n + 1 Eulerian
# terms.  On the same host the costliest admitted grid, erratum-d at n = 50
# with m = 0..998, takes about 11 s, 6 s of it the D row; a single report
# at n = 50 and m near the bound takes about 1 s past its row.
MAX_M_TERMS = 5 * 10**5  # m + 1 per report, summed over a verify grid


def _check_args(args) -> None:
    """Post-validation argparse cannot express, one branch per command: the
    job count, n >= 2 wherever type D is involved, m >= 0 wherever m is, and
    the bounds on rows, brute sweeps and fibers work, before any work."""
    if getattr(args, "jobs", None) is not None and args.jobs < 1:
        raise UsageError(f"need a job count >= 1, got {args.jobs}")
    if args.command == "verify":
        _, least_n, sweeps, row_divisor = IDENTITIES[args.identity]
        _check_grid(args.identity, least_n, sweeps, args.n_range, args.m_range, row_divisor)
    elif args.command == "missing":
        _check_grid("missing", 2, True, (args.n, args.n), (args.m, args.m))
    elif args.command == "oeis-check":
        _check_rows(args.seq, oeis.SEQUENCES[args.seq].min_n, args.max_n)
    elif args.command == "eulerian" and args.type == "D" and args.n < 2:
        raise UsageError("eulerian requires n >= 2")
    elif args.command == "map" and args.m < 0:
        raise UsageError("need m >= 0")
    elif args.command == "fibers":
        if args.type == "D" and args.n < 2:
            raise UsageError("fibers requires n >= 2")
        if args.n < 1 or args.m < 0:
            raise UsageError("need n >= 1 and m >= 0")
        # both bounds grow with n and refuse n = 20, so a huge n costs nothing
        n = min(args.n, 20)
        if args.m and (2 * args.m + 1) ** n > MAX_FIBER_VECTORS:
            raise UsageError(f"fibers sweeps (2m+1)^n vectors, at most {MAX_FIBER_VECTORS}")
        # |B_n| = 2^n n!, and D_n is half of B_n
        if args.sigma is None and 2**n * factorial(n) > MAX_FIBER_REPORTS * (2 if args.type == "D" else 1):
            raise UsageError(
                f"all-sigma fibers reports |{args.type}_n| sigmas, at most "
                f"{MAX_FIBER_REPORTS}; pick one with --sigma"
            )


def _check_grid(name: str, least_n: int, sweeps: bool, n_range, m_range, row_divisor: int = 0) -> None:
    """Refuse a verify or missing (n, m) grid: n below least_n, n < 1 or m < 0,
    verify's rows and m terms (else n past MAX_ROW_N), then the sweep."""
    (n_lo, n_hi), (m_lo, m_hi) = n_range, m_range
    if n_lo < least_n and least_n > 1:  # n < 1 alone gets the message below
        raise UsageError(f"{name} requires n >= {least_n}")
    if n_lo < 1 or m_lo < 0:
        raise UsageError("need n >= 1 and m >= 0")
    if row_divisor:
        _check_rows(name, n_lo, n_hi, row_divisor)
        # m + 1 summed over the m-range in closed form, once per n
        terms = (n_hi - n_lo + 1) * (m_lo + m_hi + 2) * (m_hi - m_lo + 1) // 2
        if terms > MAX_M_TERMS:
            raise UsageError(f"{name} sums m + 1 to {terms} over the grid, at most {MAX_M_TERMS}")
    elif n_hi > MAX_ROW_N:
        raise UsageError(f"n must be <= {MAX_ROW_N}")
    if sweeps:
        # n <= MAX_ROW_N, and any() stops at the first partial sum past the bound
        sizes = ((2 * m + 1) ** n for n in range(n_lo, n_hi + 1) for m in range(m_lo, m_hi + 1))
        if any(total > MAX_SWEEP_VECTORS for total in accumulate(sizes)):
            raise UsageError(f"{name} sweeps more than {MAX_SWEEP_VECTORS} vectors")


def _check_rows(name: str, n_lo: int, n_hi: int, row_divisor: int = 1) -> None:
    """Refuse rows n_lo..n_hi past MAX_ROW_N, or past MAX_ROW_STEPS in all."""
    if n_hi > MAX_ROW_N:
        raise UsageError(f"n must be <= {MAX_ROW_N}")
    steps = sum(n**4 for n in range(n_lo, n_hi + 1)) // row_divisor
    if steps > MAX_ROW_STEPS:
        raise UsageError(f"{name} builds rows of about {steps} steps, at most {MAX_ROW_STEPS}")


def parse_range(text: str) -> tuple[int, int]:
    parts = text.split("..")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


# -- subcommand handlers ----------------------------------------------------

def cmd_eulerian(args) -> int:
    row = eulerian_row(args.type, args.n)
    if args.format == "json":
        print(row.to_json())
    elif args.format == "csv":
        print(row.to_csv(), end="")
    elif args.q:
        print(",".join("[" + ",".join(map(str, p.to_list())) + "]" for p in row.entries))
    else:
        print(",".join(str(c) for c in row.at_q1()))
    return 0


def _write_reports(reports, show, sep: str = "", head: str = "", tail=lambda ok: "", passed=attrgetter("passed")) -> int:
    """Write ``head``, each ``show(report)`` as soon as the report is built,
    joined by ``sep``, then ``tail(ok)``; ok: ``passed`` holds for every
    report."""
    write = sys.stdout.write
    write(head)
    ok, lead = True, ""
    for r in reports:
        ok = ok and passed(r)
        write(lead + show(r))
        lead = sep
    write(tail(ok))
    return 0 if ok else 1


def _verify_text(r) -> str:
    if r.identity == "erratum-d":
        status = "CONFIRMED" if r.passed else "NOT CONFIRMED"
        at_q1 = f"(at q=1: {r.extras['printed_at_q1']} vs {r.extras['rhs_at_q1']})"
        return f"erratum-d n={r.n} m={r.m}: {status}  printed={r.lhs} rhs={r.rhs} {at_q1}\n"
    status = "PASS" if r.passed else "FAIL"
    brute = f" brute={r.extras['brute']}" if "brute" in r.extras else ""
    return f"{r.identity} n={r.n} m={r.m}: {status}  lhs={r.lhs} rhs={r.rhs}{brute}\n"


def cmd_verify(args) -> int:
    (n_lo, n_hi), (m_lo, m_hi) = args.n_range, args.m_range
    report = IDENTITIES[args.identity].report
    reports = (report(n, m) for n in range(n_lo, n_hi + 1) for m in range(m_lo, m_hi + 1))
    if args.format == "json":  # the bytes of json.dumps({"reports": [...], "pass": ok})
        import json
        tail = lambda ok: f'], "pass": {json.dumps(ok)}}}\n'  # noqa: E731
        return _write_reports(reports, lambda r: json.dumps(r.to_json_dict()), ", ", '{"reports": [', tail)
    if args.format == "csv":
        csv_row = lambda r: f"{r.identity},{r.n},{r.m},{r.lhs},{r.rhs},{r.passed}\n"  # noqa: E731
        return _write_reports(reports, csv_row, head="identity,n,m,lhs,rhs,pass\n")
    return _write_reports(reports, _verify_text)


def cmd_map(args) -> int:
    v = parse_vector(args.vector, args.m)
    if args.type == "B":
        print(map_b.phi(v, args.m).format())
        return 0
    if len(v) < 2:
        raise UsageError("type-D map requires vectors of length >= 2")
    print(str(map_d.psi(v, args.m)))
    return 0


def cmd_fibers(args) -> int:
    head, rest = map_b.fiber_writer(args.format, args.type, args.m, args.vectors or args.sigma is not None)

    def show(r) -> str:
        return head + format_vector(r.sigma.window) + rest(r.expected_size, r.oracle_size, r.passed, r.vectors)

    if args.sigma is not None:
        sigma = SignedPermutation.parse(args.sigma)
        if sigma.n != args.n:
            raise UsageError(f"--sigma has {sigma.n} entries, expected {args.n}")
        newline = "\n" if args.format == "json" else ""  # a text report ends in one
        return _write_reports([map_d.fiber_report(args.type, sigma, args.m)], show, tail=lambda ok: newline)
    # all-sigma: one write per permutation p, from its pattern's template: per
    # window a getter of the parts of its text in pieces + p's letters + p's
    # report texts, for law 0 head, the letters (each after a piece with its
    # sign) and law0, else the report's text (a getter of a slice gives a
    # 1-tuple, joined to its one text).  Up to B_6 no temporary of a block
    # passes pymalloc's 512 bytes (freed C-heap blocks kept pages resident).
    sep, bracket, tail = (", ", "[", lambda ok: "]\n") if args.format == "json" else ("", "", lambda ok: "")
    rows, blocks = map_d.fiber_blocks(args.type, args.n, args.m)
    pieces = (head, head + "-", ",", ",-", rest(0, 0, True, ()))
    signs = next(iter(rows.values()))[0]
    law0 = {s: itemgetter(*[j for i, x in enumerate(s) for j in (2 * (i > 0) + (x < 0), 5 + i)], 4) for s in signs}
    text = [itemgetter(slice(k, k + 1)) for k in range(5 + args.n, 5 + args.n + len(signs))]
    templates = {
        pattern: [text[k] if law else law0[s] for s, law, k in zip(signs, laws, accumulate(map(bool, laws), initial=0))]
        for pattern, (_, laws) in rows.items()
    }

    def block_text(block) -> str:
        pattern, p, reports = block
        texts = tuple(map(show, reports))
        if len(texts) == len(templates[pattern]):  # every window is reported
            return sep.join(texts)
        pool = pieces + tuple(map(str, p)) + texts
        return sep.join(map("".join, map(itemgetter.__call__, templates[pattern], repeat(pool))))

    return _write_reports(blocks, block_text, sep, bracket, tail, lambda block: all(r.passed for r in block[2]))


def cmd_missing(args) -> int:
    census = map_d.missing_census(args.n, args.m)
    if args.format == "json":
        import json
        print(json.dumps(census.to_json_dict()))
    else:
        for case in map_d.MISSING_CASES:
            print(
                f"{case}: count={census.counts[case]} weight={census.weights[case]}"
            )
        print(f"total: count={census.total_count} weight={census.total_weight}")
        line = "closed forms: case1={case1} A={A} B={B} total={total} weight={total_weight}"
        print(line.format_map(census.closed_forms))
        print("pass" if census.passed else "FAIL")
    return 0 if census.passed else 1


def cmd_oeis_check(args) -> int:
    report = oeis.check_sequence(args.seq, args.max_n, bfile_path=args.bfile)
    if report.warning:
        print(f"warning: {report.warning}", file=sys.stderr)
    if args.format == "json":
        import json
        print(json.dumps(report.to_json_dict()))
    else:
        for n, ref, got, ok in report.rows:
            status = "ok" if ok else "MISMATCH"
            print(f"{args.seq} n={n}: {status} reference={list(ref)} computed={list(got)}")
    return 0 if report.passed else 1


# -- argument parsing ---------------------------------------------------------

@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process for every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="worpitzky",
        description="Exact Eulerian-number and Worpitzky-identity engine "
        "for signed and even-signed permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = {"choices": ["text", "json", "csv"], "default": "text"}
    text_json = {"choices": ["text", "json"], "default": "text"}

    p = sub.add_parser("eulerian", help="print one Eulerian triangle row")
    p.add_argument("--type", required=True, choices=["A", "B", "D"])
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--q", action="store_true", help="print q-coefficient lists")
    p.add_argument("--format", **fmt)
    p.set_defaults(fn=cmd_eulerian)

    p = sub.add_parser("verify", help="verify an identity over an (n, m) grid")
    p.add_argument("--identity", required=True, choices=list(IDENTITIES))
    p.add_argument("--n-range", required=True, type=parse_range, metavar="A..B")
    p.add_argument(
        "--m-range",
        required=True,
        type=parse_range,
        metavar="C..D",
        help="m grid (plays the role of k for worpitzky-a)",
    )
    p.add_argument("--jobs", type=int)
    p.add_argument("--format", **fmt)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("map", help="map a vector to a signed permutation")
    p.add_argument("--type", required=True, choices=["B", "D"])
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--vector", required=True)
    p.set_defaults(fn=cmd_map)

    p = sub.add_parser("fibers", help="fiber sizes and members")
    p.add_argument("--type", required=True, choices=["B", "D"])
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--sigma", help="single permutation (comma-separated window)")
    p.add_argument(
        "--vectors", action="store_true", help="include vectors in all-sigma reports"
    )
    p.add_argument("--format", **text_json)
    p.set_defaults(fn=cmd_fibers)

    p = sub.add_parser("missing", help="census of vectors without a type-D partner")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--jobs", type=int)
    p.add_argument("--format", **text_json)
    p.set_defaults(fn=cmd_missing)

    p = sub.add_parser("oeis-check", help="cross-check triangle rows against OEIS data")
    p.add_argument("--seq", required=True, choices=sorted(oeis.SEQUENCES))
    p.add_argument("--max-n", required=True, type=int)
    p.add_argument("--bfile", help="local b-file path")
    p.add_argument("--format", **text_json)
    p.set_defaults(fn=cmd_oeis_check)

    return parser


def _join_dash_values(argv: list[str]) -> list[str]:
    """Turn ``--vector -2,0,0`` into ``--vector=-2,0,0`` so argparse does not
    mistake a value with a leading minus for an option."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--vector", "--sigma", "--n-range", "--m-range") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_dash_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        _check_args(args)
        return args.fn(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout; send the exit-time flush to devnull so it
        # does not fail again, and exit 1 as Python does on EPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
