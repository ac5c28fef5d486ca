"""Span tracer for the traced benchmark session.

``install`` wraps the worpitzky layers from outside the package: every
module-level name a caller looks a function up by is rebound to a wrapper,
so ``map_d.phi`` is traced as well as ``map_b.phi``.  ``uninstall`` puts
every original back.  A wrapper returns what the wrapped function returns
and lets what it raises pass through unchanged.

Spans are aggregated per name as they close, not stored one by one: a
traced ``rows`` session opens over a million of them.  For each name the
tracer keeps

* the number of outermost calls (a call made while a span of the same name
  is already open is part of that span, so ``enumerate_dn`` reading
  ``enumerate_bn`` yields each element once);
* the inclusive seconds of the outermost spans;
* the self seconds of all spans: duration minus the time covered by the
  direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import multiprocessing
import resource
import sys
import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict[str, list] = {}  # name -> [outermost calls, inclusive s, self s]
        self.edges: dict[tuple[str, str], int] = {}  # (parent, child) -> outermost calls
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []  # open spans: [name, start, covered child seconds]
        self._open: dict[str, int] = {}
        self._undo: list[tuple] = []

    # -- spans ----------------------------------------------------------

    def enter(self, name: str) -> None:
        self._open[name] = self._open.get(name, 0) + 1
        self._stack.append([name, self.clock(), 0.0])

    def exit(self, counted: bool = True) -> None:
        end = self.clock()
        name, start, covered = self._stack.pop()
        duration = end - start
        depth = self._open[name] - 1
        self._open[name] = depth
        agg = self.spans.get(name)
        if agg is None:
            agg = self.spans[name] = [0, 0.0, 0.0]
        agg[2] += duration - covered
        outermost = depth == 0
        if outermost:
            agg[1] += duration
            if counted:
                agg[0] += 1
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            if outermost and counted:
                edge = (parent[0], name)
                self.edges[edge] = self.edges.get(edge, 0) + 1

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def inclusive(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, *names: str) -> float:
        return sum(self.spans.get(name, (0, 0.0, 0.0))[2] for name in names)

    def layer_self_time(self, layer: str) -> float:
        return sum((agg[2] for name, agg in self.spans.items() if name.split(".")[0] == layer), 0.0)

    # -- wrappers ---------------------------------------------------------

    def call(self, fn, name: str, on_result=None):
        """Time each call of ``fn`` as one span."""
        enter, exit_ = self.enter, self.exit

        def traced(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if on_result is not None:
                on_result(result)
            return result

        return functools.update_wrapper(traced, fn, updated=())

    def iterate(self, fn, name: str):
        """Time each ``__next__`` of the iterators ``fn`` returns, so the
        consumer's time between items is not counted; one call per item."""
        tracer = self

        def traced(*args, **kwargs):
            return _SpanIterator(tracer, name, fn(*args, **kwargs))

        return functools.update_wrapper(traced, fn, updated=())

    def count_calls(self, fn, name: str):
        """Count calls without a span, for per-vector helpers whose time
        belongs to their caller."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(counted, fn, updated=())

    def count_items(self, fn, name: str):
        """Count the items of the iterators ``fn`` returns, without a span."""
        tracer = self

        def counted(*args, **kwargs):
            return _CountingIterator(tracer.counts, name, fn(*args, **kwargs))

        return functools.update_wrapper(counted, fn, updated=())

    # -- patching ---------------------------------------------------------

    def patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def rebind(self, modules, original, value) -> None:
        """Bind ``value`` to every name under which ``modules`` hold ``original``."""
        found = False
        for module in modules:
            for attr, bound in list(vars(module).items()):
                if bound is original:
                    self.patch(module, attr, value)
                    found = True
        if not found:
            raise LookupError(f"{original!r} is bound in no traced module")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class _SpanIterator:
    __slots__ = ("_tracer", "_name", "_it")

    def __init__(self, tracer: Tracer, name: str, iterable):
        self._tracer, self._name, self._it = tracer, name, iter(iterable)

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        tracer.enter(self._name)
        try:
            item = next(self._it)
        except StopIteration:
            tracer.exit(counted=False)
            raise
        except BaseException:
            tracer.exit()
            raise
        tracer.exit()
        return item


class _CountingIterator:
    __slots__ = ("_counts", "_name", "_it")

    def __init__(self, counts: dict, name: str, iterable):
        self._counts, self._name, self._it = counts, name, iter(iterable)

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self._it)
        self._counts[self._name] = self._counts.get(self._name, 0) + 1
        return item


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class _TracedPool:
    """A ``multiprocessing.Pool`` measured from the parent side.

    Forked workers inherit the wrapped modules, so they undo the patches
    first and run the same code as an untraced run; their spans would be
    lost with them anyway.
    """

    def __init__(self, tracer: Tracer, pool_factory, processes=None):
        self._tracer = tracer
        self._workers = processes or multiprocessing.cpu_count()
        self._born = tracer.clock()
        self._cpu_before = _children_cpu_s()
        forked = multiprocessing.get_start_method() == "fork"
        with tracer.span("pool.create"):
            self._pool = pool_factory(processes, initializer=tracer.uninstall if forked else None)
        tracer.add("pool.workers", self._workers)

    def map(self, fn, iterable, chunksize=None):
        shards = list(iterable)
        self._tracer.add("pool.shards", len(shards))
        # every block function in the package takes (n, m, first) and sweeps
        # the (2m+1)^(n-1) vectors that start with `first`
        self._tracer.add("sigma_vectors.vectors", sum((2 * m + 1) ** (n - 1) for n, m, _ in shards))
        with self._tracer.span("pool.map"):
            return self._pool.map(fn, shards, chunksize)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        # terminate() joins the workers, so RUSAGE_CHILDREN now holds their CPU
        result = self._pool.__exit__(*exc_info)
        tracer = self._tracer
        tracer.add("pool.worker_s", self._workers * (tracer.clock() - self._born))
        tracer.add("pool.child_cpu_s", _children_cpu_s() - self._cpu_before)
        return result


def _package_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "worpitzky" or name.startswith("worpitzky.")
    ]


def _public_functions(module):
    for attr, value in sorted(vars(module).items()):
        if attr.startswith("_") or isinstance(value, type) or not callable(value):
            continue
        if getattr(value, "__module__", None) == module.__name__:
            yield attr, value


def install(tracer: Tracer) -> None:
    """Wrap the worpitzky layers; ``tracer.uninstall()`` removes every wrapper."""
    # cli too: a module imported after install would keep the wrappers
    from worpitzky import bernoulli, cli, eulerian, exactnum, map_b, map_d, oeis, signed_perm, sigma_vectors  # noqa: F401

    modules = _package_modules()

    def everywhere(original, wrapper):
        tracer.rebind(modules, original, wrapper)

    for fn in (signed_perm.enumerate_bn, signed_perm.enumerate_dn):
        everywhere(fn, tracer.iterate(fn, "signed_perm.enum"))
    perm = signed_perm.SignedPermutation
    tracer.patch(perm, "__init__", tracer.call(vars(perm)["__init__"], "signed_perm.construct"))

    for fn in (eulerian.eulerian_row, eulerian.eulerian_row_a, eulerian.eulerian_row_b_q, eulerian.eulerian_row_d_q):
        everywhere(fn, tracer.call(fn, "eulerian.row"))
    everywhere(eulerian._tally, tracer.call(eulerian._tally, "eulerian.tally"))

    for fn in (sigma_vectors.total_weight_neg, sigma_vectors.total_weight_neg2):
        everywhere(fn, tracer.call(fn, "sigma_vectors.weight"))
    for fn in (sigma_vectors.neg_vec, sigma_vectors.neg2_vec):
        everywhere(fn, tracer.count_calls(fn, "sigma_vectors.stat_calls"))
    # enumerate_vectors feeds the in-process sweeps, itertools.product the
    # census blocks that map_d runs in-process at jobs=1
    for fn in (sigma_vectors.enumerate_vectors, itertools.product):
        everywhere(fn, tracer.count_items(fn, "sigma_vectors.vectors"))
    everywhere(multiprocessing.Pool, functools.partial(_TracedPool, tracer, multiprocessing.Pool))

    def on_census(census):
        tracer.add("map_d.missing", census.total_count)
        tracer.add("map_d.classified", census.total_count + census.associated_count)

    def on_psi_fibers(result):
        fibers, missing = result
        missed = sum(len(vs) for vs in missing.values())
        tracer.add("map_d.missing", missed)
        tracer.add("map_d.classified", missed + sum(len(vs) for vs in fibers.values()))

    hooks = {map_d.missing_census: on_census, map_d.psi_fibers: on_psi_fibers}
    # hot leaf helpers (order_key, letters, check_bound, binom, the descent
    # methods) stay unwrapped: their time belongs to the caller's self time
    for module in (map_b, map_d, bernoulli, oeis):
        layer = module.__name__.rsplit(".", 1)[1]
        for attr, fn in _public_functions(module):
            name = f"{layer}.{attr}"
            if inspect.isgeneratorfunction(fn):
                everywhere(fn, tracer.iterate(fn, name))
            else:
                everywhere(fn, tracer.call(fn, name, hooks.get(fn)))

    poly = exactnum.QPolynomial
    for attr in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__", "__pow__"):
        tracer.patch(poly, attr, tracer.call(vars(poly)[attr], "exactnum.poly"))


def layer_metrics(tracer: Tracer, stdout_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced session, after ``uninstall``."""
    from worpitzky import eulerian

    caches = [f.cache_info() for f in (eulerian.eulerian_row_a, eulerian.eulerian_row_b_q, eulerian.eulerian_row_d_q)]
    count = tracer.counts.get
    worker_s = count("pool.worker_s", 0.0)
    classified = count("map_d.classified", 0)
    return {
        "cli.self_s": tracer.self_time("cli.main"),
        "cli.stdout_bytes": stdout_bytes,
        "signed_perm.enum_elems": tracer.calls("signed_perm.enum"),
        "signed_perm.enum_s": tracer.inclusive("signed_perm.enum"),
        "signed_perm.constructs": tracer.calls("signed_perm.construct"),
        "signed_perm.construct_s": tracer.inclusive("signed_perm.construct"),
        "eulerian.rows_built": sum(c.misses for c in caches),
        "eulerian.row_cache_hits": sum(c.hits for c in caches),
        "eulerian.tally_self_s": tracer.layer_self_time("eulerian"),
        "sigma_vectors.vectors_swept": count("sigma_vectors.vectors", 0),
        "sigma_vectors.stat_calls": count("sigma_vectors.stat_calls", 0),
        "sigma_vectors.weight_self_s": tracer.self_time("sigma_vectors.weight"),
        "map_b.phi_calls": tracer.calls("map_b.phi"),
        "map_b.phi_self_s": tracer.self_time("map_b.phi"),
        "map_b.chains_decoded": tracer.calls("map_b.decode_abs_chains"),
        "map_b.decode_s": tracer.inclusive("map_b.decode_abs_chains"),
        "map_b.oracle_s": tracer.inclusive("map_b.phi_fibers"),
        "map_d.psi_calls": tracer.calls("map_d.psi"),
        "map_d.psi_self_s": tracer.self_time("map_d.psi"),
        "map_d.census_s": tracer.inclusive("map_d.missing_census"),
        "map_d.missing_ratio": count("map_d.missing", 0) / classified if classified else 0.0,
        "map_d.fiber_revalidations": tracer.edges.get(("map_d.fiber_enumerate_d", "map_d.psi"), 0),
        "map_d.oracle_s": tracer.inclusive("map_d.psi_fibers"),
        "pool.workers": count("pool.workers", 0),
        "pool.shards": count("pool.shards", 0),
        "pool.create_s": tracer.inclusive("pool.create"),
        "pool.map_s": tracer.inclusive("pool.map"),
        "pool.idle_frac": 1.0 - count("pool.child_cpu_s", 0.0) / worker_s if worker_s else 0.0,
        "bernoulli.lhs_calls": tracer.calls("bernoulli.worpitzky_d_lhs"),
        "bernoulli.lhs_s": tracer.inclusive("bernoulli.worpitzky_d_lhs"),
        "exactnum.poly_ops": tracer.calls("exactnum.poly"),
        "exactnum.poly_s": tracer.inclusive("exactnum.poly"),
        "oeis.check_self_s": tracer.layer_self_time("oeis"),
    }
