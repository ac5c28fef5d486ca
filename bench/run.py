"""Benchmark harness for the worpitzky CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --record-goldens

Each session is a fresh interpreter (``session.py``) that imports the
package from ``src/`` and runs the workload's command list through
``worpitzky.cli.main``, so caches start cold and are shared across the
list as in a library session.  Sessions run one at a time until ``--seconds``
is used up; the metrics are medians over them.  With ``--trace 1`` traced
and untraced sessions alternate and the per-layer metrics of the traced
ones are reported, with the tracing overhead.

Every time reported is speed-normalized.  The host this was built on ran
the same pure-Python code up to 1.8 times slower at some moments than at
others, so each session times a short fixed task (``session.probe_task``)
ten times after the import and every 0.1 s while its commands run.  A time
is divided by ``slowdown(probe times)``; see RATIONALE.md.  The raw medians
and the slowdown are printed too.

Every command must exit 0 and print exactly the bytes whose SHA-256 is in
``goldens.json``; a command that does not counts as failed.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics named in BENCHMARK.json with their units.  See RATIONALE.md for why
the workloads and metrics are what they are.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from math import factorial
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDENS = BENCH / "goldens.json"

SETUP_PROBES = 7  # empty sessions per run, on top of one set-up per session
MIN_SESSIONS = 3  # untraced sessions per run, so a median exists
SESSION_TIMEOUT_S = 150
# CPU seconds session.probe_task takes on the reference machine; on a 2-CPU
# Intel Xeon with Python 3.11.7 it took 1.7 ms to 3.5 ms with the host's load
REFERENCE_PROBE_S = 0.002


@dataclass(frozen=True)
class Workload:
    commands: tuple[tuple[str, ...], ...]
    units: int  # problem size: a constant of the inputs, not counted at run time


def _commands(*lines: str) -> tuple[tuple[str, ...], ...]:
    return tuple(tuple(line.split()) for line in lines)


def _b_size(n: int) -> int:
    return 2**n * factorial(n)


def _sweep(jobs: int) -> Workload:
    return Workload(
        _commands(
            f"missing --n 6 --m 3 --jobs {jobs}",
            f"verify --identity balance-d --n-range 6..6 --m-range 4..4 --jobs {jobs}",
            f"verify --identity worpitzky-b --n-range 6..6 --m-range 4..4 --jobs {jobs}",
        ),
        units=7**6 + 2 * 9**6,  # vectors in the swept spaces
    )


WORKLOADS = {
    # group enumeration and the descent tally; no vector sweeps
    "rows": Workload(
        _commands(
            "eulerian --type D --n 7 --q",
            "verify --identity worpitzky-d --n-range 2..7 --m-range 0..6",
            "verify --identity erratum-d --n-range 2..7 --m-range 0..6",
            "oeis-check --seq A060187 --max-n 6",
            "oeis-check --seq A262226 --max-n 6",
            "verify --identity worpitzky-a --n-range 1..9 --m-range 0..9",
        ),
        # elements of the distinct rows a cold session builds: D2..D7, B1..B6, A1..A9
        units=sum(_b_size(n) // 2 for n in range(2, 8))
        + sum(_b_size(n) for n in range(1, 7))
        + sum(factorial(n) for n in range(1, 10)),
    ),
    # per-vector phi/psi/neg2_vec work, serial
    "sweep": _sweep(jobs=1),
    # the same sweeps through the Pool fan-out and reduce
    "sweep-par": _sweep(jobs=2),
    # forward oracles holding whole vector spaces, chain decoding, big output
    "fibers": Workload(
        _commands(
            "fibers --type D --n 6 --m 1 --format json --vectors",
            "fibers --type B --n 6 --m 1 --format json --vectors",
            "fibers --type D --n 6 --m 2",
        ),
        units=3**6 + 3**6 + 5**6,  # vectors in the forward-oracle spaces
    ),
}


class BenchError(Exception):
    pass


def golden_key(argv) -> str:
    """Output is promised identical for any worker count, so one digest
    serves every --jobs value of a command."""
    argv = list(argv)
    if "--jobs" in argv:
        i = argv.index("--jobs")
        del argv[i : i + 2]
    return " ".join(argv)


def check_jobs(commands, cpus: int | None) -> None:
    """Refuse a command that would start more pool workers than cores."""
    limit = cpus or 1
    for argv in commands:
        if "--jobs" in argv:
            jobs = int(argv[argv.index("--jobs") + 1])
            if jobs > limit:
                raise BenchError(f"refusing --jobs {jobs} with {limit} CPU(s): {' '.join(argv)}")


def run_session(commands, traced: bool = False) -> dict:
    env = dict(os.environ)
    env.pop("WORPITZKY_JOBS", None)  # every sweep command states its --jobs
    # the warm-up session writes the bytecode caches that set-up then reads,
    # as an installed package would have them
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    spawned = time.monotonic()
    # a session of its own, so a timeout can kill its pool workers with it
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "session.py"), str(SRC), "1" if traced else "0"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=env,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(json.dumps([list(argv) for argv in commands]), timeout=SESSION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"session did not finish within {SESSION_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"session exited {proc.returncode}: {stderr.strip()[-2000:]}")
    record = json.loads(stdout.splitlines()[-1])
    record["setup_raw_s"] = record["ready"] - spawned
    record["setup_slowdown"] = slowdown(record["burst_s"])
    record["slowdown"] = slowdown(record["burst_s"] + record["samples_s"])
    return record


def slowdown(probe_s) -> float:
    """Factor by which the host ran slower than the reference machine."""
    return statistics.fmean(probe_s) / REFERENCE_PROBE_S


def gate(records, goldens: dict) -> tuple[int, int, list[str]]:
    """Count attempted and failed commands over the sessions' records."""
    attempted, failed, reasons = 0, 0, []
    for record in records:
        for result in record["commands"]:
            attempted += 1
            key = golden_key(result["argv"])
            if result["error"] is not None:
                reason = f"raised {result['error']}"
            elif result["exit"] != 0:
                reason = f"exited {result['exit']}"
            elif goldens.get(key) != result["sha256"]:
                reason = "stdout differs from the golden digest"
            else:
                continue
            failed += 1
            reasons.append(f"{key}: {reason}")
    return attempted, failed, reasons


def summary(values) -> tuple[float, float, float]:
    """Median and quartiles, as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def environment(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import multiprocessing

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu_model = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            commit = out.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "start_method": multiprocessing.get_start_method(),
        "commit": commit,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def declared_metrics(key: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[key]}


def measure(name: str, seed: int, seconds: int, trace: bool, units: dict[str, str]) -> dict:
    workload = WORKLOADS[name]
    check_jobs(workload.commands, os.cpu_count())
    commands = list(workload.commands)
    # caches are shared within a session, so the order decides which command
    # pays for a cold row; the work done and every output stay the same
    random.Random(seed).shuffle(commands)

    run_session([])  # writes the bytecode caches; users do not pay that per run
    probes = [] if trace else [run_session([]) for _ in range(SETUP_PROBES)]
    untraced, traced = [], []
    start = time.monotonic()
    while True:
        untraced.append(run_session(commands))
        if trace:
            traced.append(run_session(commands, traced=True))
        elapsed = time.monotonic() - start
        enough = len(untraced) >= (1 if trace else MIN_SESSIONS)
        if enough and elapsed + elapsed / len(untraced) > seconds:
            break

    sessions = probes + untraced + traced
    raw = {
        "raw wall_s": [r["wall_s"] for r in untraced],
        "raw setup_s": [r["setup_raw_s"] for r in sessions],
        "slowdown": [r["slowdown"] for r in sessions],
    }
    if trace:
        samples = {
            key: [r["layers"][key] / r["slowdown"] if units.get(key) == "s" else r["layers"][key] for r in traced]
            for key in traced[0]["layers"]
        }
        samples["trace.overhead_s"] = [
            statistics.median(r["wall_s"] / r["slowdown"] for r in traced)
            - statistics.median(r["wall_s"] / r["slowdown"] for r in untraced)
        ]
        raw["raw traced wall_s"] = [r["wall_s"] for r in traced]
    else:
        samples = {
            "wall_s": [r["wall_s"] / r["slowdown"] for r in untraced],
            "setup_s": [r["setup_raw_s"] / r["setup_slowdown"] for r in sessions],
            "cpu_s": [r["cpu_s"] / r["slowdown"] for r in untraced],
            "throughput": [workload.units * r["slowdown"] / r["wall_s"] for r in untraced],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        }
    return {"samples": samples, "raw": raw, "sessions": sessions}


def report(name: str, seed: int, seconds: int, trace: bool) -> dict:
    with open(GOLDENS, encoding="utf-8") as f:
        goldens = json.load(f)
    units = declared_metrics("per_layer" if trace else "end_to_end")
    print(json.dumps({"env": environment(name, seed, seconds, trace)}))
    measured = measure(name, seed, seconds, trace, units)
    samples = measured["samples"]
    if set(samples) != set(units):
        raise BenchError(f"measured {sorted(samples)} but BENCHMARK.json declares {sorted(units)}")
    attempted, failed, reasons = gate(measured["sessions"], goldens)
    for reason in reasons:
        print(f"FAILED {reason}")

    metrics = {}
    for key, unit in units.items():
        median, q1, q3 = summary(samples[key])
        metrics[key] = {"value": median, "unit": unit}
        print(f"{key}: {median!r} {unit}  (q1 {q1!r}, q3 {q3!r}, n={len(samples[key])})")
    for key, values in measured["raw"].items():
        median, q1, q3 = summary(values)
        print(f"{key}: {median!r}  (q1 {q1!r}, q3 {q3!r}, n={len(values)})")
    print(f"failed_frac: {failed / attempted!r}  ({failed} of {attempted} commands)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def record_goldens() -> None:
    goldens = {}
    for workload in WORKLOADS.values():
        for result in run_session(workload.commands)["commands"]:
            if result["error"] is not None or result["exit"] != 0:
                raise BenchError(f"cannot record {' '.join(result['argv'])}: {result}")
            key = golden_key(result["argv"])
            if goldens.setdefault(key, result["sha256"]) != result["sha256"]:
                raise BenchError(f"{key}: output depends on --jobs")
    with open(GOLDENS, "w", encoding="utf-8") as f:
        json.dump(goldens, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(goldens)} digests to {GOLDENS}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true", help="write goldens.json from this tree")
    args = parser.parse_args(argv)
    if not (SRC / "worpitzky" / "__init__.py").is_file():
        print(f"error: no worpitzky package under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.record_goldens:
            record_goldens()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = report(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
