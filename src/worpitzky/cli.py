"""Command-line front end.

Subcommands: ``eulerian`` (triangle rows), ``verify`` (identity checks over
an (n, m) grid), ``map`` (vector to permutation), ``fibers`` (fiber
reports), ``missing`` (missing-vector census), ``oeis-check`` (b-file
cross-check).  Exit codes: 0 pass, 1 verification failure, 2 usage error.

One table, COMMANDS, gives each command's handler, help and flags: ``parse_args``
reads argv against it, and -h or --help prints the synopsis made from it.  A
flag is named exactly or by a unique prefix, and takes ``=value`` or the token
after it, whatever its first character; a repeated flag's last value wins.
Every usage error is one ``error:`` line on stderr with exit 2, oversize work
among them, before it starts: n past MAX_ROW_N, or a ``verify`` or ``missing``
grid or a ``fibers`` command past MAX_STEPS.

Output formats: plain text (default) and JSON; ``eulerian`` and ``verify`` also
write CSV.  ``fibers`` writes through ``map_b.fiber_writer``, all-sigma as one
template per descent pattern (see ``cmd_fibers``).  The vector sweeps run in one
pass in this process (--jobs has no effect).
"""

from __future__ import annotations

import os
import sys
from collections import namedtuple
from itertools import accumulate
from math import comb, factorial
from operator import attrgetter
from types import SimpleNamespace

from . import map_b, map_d, oeis
from .eulerian import MAX_ROW_N, eulerian_row
from .signed_perm import SignedPermutation
from .sigma_vectors import fold_steps, format_vector, parse_vector


class UsageError(Exception):
    pass


# Work bound of a verify or missing grid, summed over its (n, m) cells: a
# fold's steps (sigma_vectors.fold_steps) and n (50 + m/4) steps per report.
# On a 2-CPU Xeon with Python 3.11.7 a fold step took 0.03-0.30 us in `missing`,
# 0.06-0.25 us in worpitzky-b and 0.001-0.02 us in balance-d (n = 8 down to 2), and
# a report past its fold 2-14 us at n = 2 and 17-230 us at n = 50 (m = 0), plus per
# unit of m up to 10 us while m <= n (erratum-d at n = 50) and 1.9 us past it.
MAX_STEPS = 10**7


def _report_steps(n: int, m: int) -> int:
    return n * (200 + m) // 4


def _folded(low: int):
    return lambda n, m: fold_steps(n, m, low) + _report_steps(n, m)


# Per identity: its report call (n, m), made through the module attribute so
# a patched or rebound library name is the one called; its least n; its
# steps at (n, m).  Its rows need no bound of their own past MAX_ROW_N: one pass
# of the insertion DP builds every B and D row 2..50 in about 0.06 s on the same host.
Identity = namedtuple("Identity", "report least_n steps")
IDENTITIES = {
    "worpitzky-a": Identity(lambda n, m: map_b.verify_worpitzky_a(n, m), 1, _report_steps),
    "worpitzky-b": Identity(lambda n, m: map_b.verify_worpitzky_b(n, m), 1, _folded(0)),
    "worpitzky-d": Identity(lambda n, m: map_d.verify_worpitzky_d_q1(n, m), 2, _report_steps),
    "balance-d": Identity(lambda n, m: map_d.verify_balance_d_q(n, m), 2, _folded(1)),
    "erratum-d": Identity(lambda n, m: map_d.erratum_report_d(n, m), 2, _report_steps),
}

# Steps of `fibers` at (n, m), priced from whole commands on the same host.  A
# --sigma report pays 4 per vector of its image pass (0.2-1.5 us each) and 36
# per vector of the at most C(n+m, n) it decodes (3-14 us and about 200 B each).
# All-sigma pays per vector of its count pass, each decoded once from the plans of
# its descent pattern and checked with the pattern's other permutations (at n = 2
# and 3, 1.4-2.1 us and under 70 B a vector in B, 0.9-1.0 us and 40 B in D), plus
# 2 per group element, |B_n| = 2^n n! and |D_n| = 2^(n-1) n! (0.1-0.2 us each at
# n = 7, m = 0, where a block is its template).  The largest admitted commands
# take up to 3.5 s and peak under 60 MB RSS (59.1 at most: B, n = 2, m = 263, in
# JSON with --vectors, stdout to /dev/null).
def _fiber_steps(group: str, sigma: bool):
    if sigma:
        return lambda n, m: 4 * (2 * m + 1) ** n + 36 * comb(n + m, n)
    per_vector = 36 if group == "B" else 20
    return lambda n, m: per_vector * (2 * m + 1) ** n + 2 ** (n + (group == "B")) * factorial(n)


def _check_args(args) -> None:
    """The checks past a flag's converter or choices, one branch per command,
    before any work: the job count, n and m floors, and the rows and steps bounds."""
    if getattr(args, "jobs", None) is not None and args.jobs < 1:
        raise UsageError(f"need a job count >= 1, got {args.jobs}")
    if args.command == "verify":
        _, least_n, steps = IDENTITIES[args.identity]
        _check_grid(args.identity, least_n, steps, args.n_range, args.m_range)
    elif args.command == "missing":
        _check_grid("missing", 2, _folded(2), (args.n, args.n), (args.m, args.m))
    elif args.command == "oeis-check" and args.max_n > MAX_ROW_N:
        raise UsageError(f"n must be <= {MAX_ROW_N}")
    elif args.command == "eulerian" and args.type == "D" and args.n < 2:
        raise UsageError("eulerian requires n >= 2")
    elif args.command == "map" and args.m < 0:
        raise UsageError("need m >= 0")
    elif args.command == "fibers":
        steps = _fiber_steps(args.type, args.sigma is not None)
        _check_grid("fibers", 2 if args.type == "D" else 1, steps, (args.n, args.n), (args.m, args.m))


def _check_grid(name: str, least_n: int, steps, n_range, m_range) -> None:
    """Refuse a verify, missing or fibers (n, m) grid: n below least_n, n < 1
    or m < 0, n past MAX_ROW_N, then ``steps`` summed over the grid past MAX_STEPS."""
    (n_lo, n_hi), (m_lo, m_hi) = n_range, m_range
    if n_lo < least_n and least_n > 1:  # n < 1 alone gets the message below
        raise UsageError(f"{name} requires n >= {least_n}")
    if n_lo < 1 or m_lo < 0:
        raise UsageError("need n >= 1 and m >= 0")
    if n_hi > MAX_ROW_N:
        raise UsageError(f"n must be <= {MAX_ROW_N}")
    # a report is 50 steps or more, so the sum passes the bound within
    # MAX_STEPS / 50 cells; a huge estimate is stated by a power of 2 below it
    cells = (steps(n, m) for n in range(n_lo, n_hi + 1) for m in range(m_lo, m_hi + 1))
    for total in accumulate(cells):
        if total > MAX_STEPS:
            shown = total if total.bit_length() <= 64 else f"2^{total.bit_length() - 1}"
            raise UsageError(f"{name} takes {shown} steps or more, at most {MAX_STEPS}")


def parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = map(int, text.split(".."))
    except ValueError:  # not two parts, or a part that is no int
        raise ValueError(f"expected A..B, got {text!r}") from None
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
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
    if sys.platform == "linux":
        import ctypes

        # M_MMAP_THRESHOLD (-3) fixed at 1 MiB, not raised to the largest block freed, so
        # MB-sized tables and report text never land on heap pages earlier commands left
        ctypes.CDLL(None).mallopt(-3, 1 << 20)
    head, rest = map_b.fiber_writer(args.format, args.type, args.m, args.vectors or args.sigma is not None)

    def show(r) -> str:
        return head + format_vector(r.sigma.window) + rest(r.expected_size, r.oracle_size, r.passed, r.vectors)

    if args.sigma is not None:
        sigma = SignedPermutation.parse(args.sigma)
        if sigma.n != args.n:
            raise UsageError(f"--sigma has {sigma.n} entries, expected {args.n}")
        newline = "\n" if args.format == "json" else ""  # a text report ends in one
        return _write_reports([map_d.fiber_report(args.type, sigma, args.m)], show, tail=lambda ok: newline)
    # all-sigma: a block is its pattern's template, where chr(0) brackets each window of nonzero
    # law (its report's text with --vectors or a failure), under one translate of chr(0) to ""
    # and chr(k) to p's letter k, which no report text holds (chr(10) is "\n").
    if args.n > 9:
        raise UsageError("all-sigma fibers take n <= 9")
    sep, bracket, tail = (", ", "[", lambda ok: "]\n") if args.format == "json" else ("", "", lambda ok: "")
    rows, blocks = map_d.fiber_blocks(args.type, args.n, args.m, args.vectors)
    marks = [head + ",".join("-" * (x < 0) + chr(k) for k, x in enumerate(s, 1)) for s in next(iter(rows.values()))[0]]
    # the text after a passing window, made once per distinct law (at most n + 2 of them)
    tails = {law: rest(law, law, True, ()) for law in {law for _, laws in rows.values() for law in laws}}
    window = lambda mark, law: f"\0{mark}{tails[law]}\0" if law else mark + tails[0]  # noqa: E731
    templates = {pattern: sep.join(map(window, marks, laws)) for pattern, (_, laws) in rows.items()}
    table = [None, *map(chr, range(1, 128))]

    def block_text(block) -> str:
        pattern, p, reports = block
        if len(reports) == len(marks):  # whole: a failure, or --vectors where every law is nonzero
            return sep.join(map(show, reports))
        text = templates[pattern]
        if reports:  # the windows of nonzero law, with --vectors
            parts = text.split("\0")
            parts[1::2] = map(show, reports)
            text = "".join(parts)
        table[1:len(p) + 1] = map(str, p)
        return text.translate(table)

    return _write_reports(blocks, block_text, sep, bracket, tail, lambda block: all(r.passed for r in block[2]))


def cmd_missing(args) -> int:
    census = map_d.missing_census(args.n, args.m)
    if args.format == "json":
        import json
        print(json.dumps(census.to_json_dict()))
    else:
        for case, count in census.counts.items():
            print(f"{case}: count={count} weight={census.weights[case]}")
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


# -- the command table ------------------------------------------------------

# A flag: its converter (int, parse_range or str), its choices, or SWITCH; its
# default, or REQUIRED; the name of its value in the synopsis; its help.
REQUIRED, SWITCH = "required", "switch"
Flag = namedtuple("Flag", "convert default metavar help", defaults=("", ""))
Command = namedtuple("Command", "fn help flags")
_N, _M, HELP = Flag(int, REQUIRED, "N"), Flag(int, REQUIRED, "M"), {"--help": Flag(SWITCH, False)}
_JOBS = Flag(int, None, "J", "accepted (>= 1), without effect: every sweep runs in this process")
_FORMAT, _TEXT_JSON = Flag(["text", "json", "csv"], "text"), Flag(["text", "json"], "text")
COMMANDS = {
    "eulerian": Command(cmd_eulerian, "print one Eulerian triangle row", {
        "--type": Flag(["A", "B", "D"], REQUIRED), "--n": _N,
        "--q": Flag(SWITCH, False, help="print q-coefficient lists"), "--format": _FORMAT}),
    "verify": Command(cmd_verify, "verify an identity over an (n, m) grid", {
        "--identity": Flag(list(IDENTITIES), REQUIRED), "--n-range": Flag(parse_range, REQUIRED, "A..B"),
        "--m-range": Flag(parse_range, REQUIRED, "C..D", "m grid (plays the role of k for worpitzky-a)"),
        "--jobs": _JOBS, "--format": _FORMAT}),
    "map": Command(cmd_map, "map a vector to a signed permutation", {
        "--type": Flag(["B", "D"], REQUIRED), "--m": _M, "--vector": Flag(str, REQUIRED, '"a1,a2,..."')}),
    "fibers": Command(cmd_fibers, "fiber sizes and members", {
        "--type": Flag(["B", "D"], REQUIRED), "--n": _N, "--m": _M,
        "--sigma": Flag(str, None, '"s1,s2,..."', "single permutation (comma-separated window)"),
        "--vectors": Flag(SWITCH, False, help="include vectors in all-sigma reports"), "--format": _TEXT_JSON}),
    "missing": Command(cmd_missing, "census of vectors without a type-D partner", {
        "--n": _N, "--m": _M, "--jobs": _JOBS, "--format": _TEXT_JSON}),
    "oeis-check": Command(cmd_oeis_check, "cross-check triangle rows against OEIS data", {
        "--seq": Flag(sorted(oeis.SEQUENCES), REQUIRED), "--max-n": Flag(int, REQUIRED, "K"),
        "--bfile": Flag(str, None, "PATH", "local b-file path"), "--format": _TEXT_JSON}),
}


def cmd_help(args) -> int:
    """Write each command's synopsis, as the README's Usage lines give it, its
    help and its flags' help."""
    print("Exact Eulerian-number and Worpitzky-identity engine for signed and even-signed permutations.\n")
    for name, command in COMMANDS.items():
        words, helps = ["worpitzky", name], [command.help]
        for flag, (convert, default, metavar, text) in command.flags.items():
            if isinstance(convert, list):
                metavar = "{%s}" % "|".join(convert) if default == REQUIRED else "|".join(convert)
            word = flag if convert == SWITCH else f"{flag} {metavar}"
            words.append(word if default == REQUIRED else f"[{word}]")
            helps += [f"{flag}: {text}"] if text else []
        print(" ".join(words), *helps, sep="\n    ")
    print("\nExit codes: 0 pass, 1 verification failure, 2 usage error.")
    return 0


def _convert(flag: str, convert, text: str):
    if isinstance(convert, list):
        if text not in convert:
            raise UsageError(f"argument {flag}: invalid choice: {text!r} (choose from {', '.join(map(repr, convert))})")
        return text
    try:
        return convert(text)
    except ValueError as exc:
        raise UsageError(f"argument {flag}: " + (f"invalid int value: {text!r}" if convert is int else str(exc))) from None


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Read ``argv`` against COMMANDS, in argparse's wording: each flag's value or
    default under its name (``--n-range`` as ``n_range``), with ``command`` and
    ``fn``; or the help command, where -h or --help comes before any error.  The
    command is the first token that is no flag.  A bad argv raises UsageError."""
    name, flags, values, extras, tokens = None, HELP, {}, [], iter(argv)
    for token in tokens:
        if name is None and not token.startswith("-"):
            if token not in COMMANDS:
                raise UsageError(f"argument command: invalid choice: {token!r} (choose from {', '.join(map(repr, COMMANDS))})")
            name, flags = token, {**COMMANDS[token].flags, **HELP}
            continue
        flag, eq, value = token.partition("=")
        if token == "-h":
            flag = "--help"
        elif flag not in flags:
            found = [f for f in flags if f.startswith(flag)] if flag.startswith("--") and token != "--" else []
            if len(found) > 1:
                raise UsageError(f"ambiguous option: {token} could match {', '.join(found)}")
            if not found:
                extras.append(token)
                continue
            flag = found[0]
        convert = flags[flag].convert
        if convert == SWITCH and eq:
            raise UsageError(f"argument {flag}: ignored explicit argument {value!r}")
        if flag == "--help":
            return SimpleNamespace(command="help", fn=cmd_help)
        if convert != SWITCH and not eq and (value := next(tokens, None)) is None:
            raise UsageError(f"argument {flag}: expected one argument")
        values[flag] = True if convert == SWITCH else _convert(flag, convert, value)
    if name is None:
        raise UsageError("the following arguments are required: command")
    command = COMMANDS[name]
    required = [flag for flag, spec in command.flags.items() if spec.default == REQUIRED and flag not in values]
    if required:
        raise UsageError(f"the following arguments are required: {', '.join(required)}")
    if extras:  # a token with a line break is quoted, to keep the message one line
        raise UsageError(f"unrecognized arguments: {' '.join(t if t.isprintable() else repr(t) for t in extras)}")
    fields = {flag[2:].replace("-", "_"): values.get(flag, spec.default) for flag, spec in command.flags.items()}
    return SimpleNamespace(command=name, fn=command.fn, **fields)


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
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
