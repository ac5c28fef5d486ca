"""One benchmark session: a fresh interpreter imports worpitzky, runs a list
of CLI commands through ``worpitzky.cli.main`` with caches shared across
them, and prints what it measured as one JSON object on stdout.

    python3 bench/session.py SRC_DIR TRACE < commands.json

``commands.json`` is a JSON list of argv lists.  With TRACE=1 the layers are
wrapped by ``layers.install`` for the whole session and the result carries
the per-layer metrics.  ``run.py`` starts one session per measurement.

The session also samples how fast the host runs pure-Python code right now
(see ``SpeedProbe``); ``run.py`` divides the session's times by it.
"""

# only sys and time are imported before the set-up clock stops; the rest
# is imported where it is used, after it
import sys
import time

BURST = 10  # probe tasks timed back to back right after the import
SAMPLE_INTERVAL_S = 0.1


def probe_task() -> float:
    """CPU seconds of this thread for a fixed pure-Python task: a descent
    tally over the permutations of 6, three times.  Thread CPU time leaves
    out any time the thread waited for a core."""
    import itertools

    start = time.thread_time()
    counts = {}
    for _ in range(3):
        for p in itertools.permutations(range(6)):
            d = sum(1 for i in range(5) if p[i] > p[i + 1])
            counts[d] = counts.get(d, 0) + 1
    return time.thread_time() - start


class SpeedProbe:
    """Run ``probe_task`` every SAMPLE_INTERVAL_S of wall time (SIGALRM)
    while the commands run, so the host's speed is sampled inside long
    commands too.  Interval timers are not inherited by forked pool workers."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame):
        self.samples.append(probe_task())

    def __enter__(self):
        import signal

        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_command(main, argv, tracer=None) -> dict:
    """Run one CLI command with stdout and stderr captured."""
    import contextlib
    import hashlib
    import io

    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                code = main(argv)
            else:
                with tracer.span("cli.main"):
                    code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a failed command is a result, not a crash
            code, error = None, f"{type(exc).__name__}: {exc}"
    data = out.getvalue().encode()
    return {
        "argv": argv,
        "exit": code,
        "error": error,
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
    }


def cpu_s(*usages) -> float:
    return sum(u.ru_utime + u.ru_stime for u in usages)


def main() -> int:
    src, traced = sys.argv[1], sys.argv[2] == "1"
    sys.path.insert(0, src)
    from worpitzky import cli

    # CLOCK_MONOTONIC is system-wide on Linux, so run.py subtracts its own
    # reading taken before the spawn to get the set-up time
    ready = time.monotonic()

    import json
    import resource

    import layers

    burst = [probe_task() for _ in range(BURST)]
    commands = json.load(sys.stdin)
    tracer = layers.Tracer() if traced else None
    probe = SpeedProbe()
    # pool workers are reaped when their pool closes, so their CPU is in
    # RUSAGE_CHILDREN once the commands are done
    usage_before = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    try:
        if tracer is not None:
            layers.install(tracer)
        with probe:
            results = [run_command(cli.main, argv, tracer) for argv in commands]
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = time.perf_counter() - start
    usage_after = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    probing = sum(probe.samples)

    record = {
        "ready": ready,
        "wall_s": wall - probing,
        "cpu_s": cpu_s(*usage_after) - cpu_s(*usage_before) - probing,
        # ru_maxrss is in KiB on Linux; the children figure is the largest worker
        "peak_rss_mb": max(u.ru_maxrss for u in usage_after) / 1024,
        "burst_s": burst,
        "samples_s": probe.samples,
        "commands": results,
    }
    if tracer is not None:
        record["layers"] = layers.layer_metrics(tracer, sum(r["bytes"] for r in results))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
