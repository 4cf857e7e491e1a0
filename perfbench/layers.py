"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions at each layer boundary.  A
wrapper opens a span through the public ``repro.instrument.span`` and
charges counts onto it; with no active ``Recorder`` it only adds one
function call.  Wrappers are installed before the workload starts, so
process-tier workers forked later inherit them, and their spans come home
through the program's own worker-trace stitching.

Several callers bind these names at import (``repro.engine.fleet.get_plan``,
``repro.core.eigenpairs.ttsv_compressed``, ...), so each name is replaced in
every loaded ``repro`` module that holds it, not only where it is defined.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

import numpy as np

#: span name -> layer.  A span's self time is charged to its layer; a
#: program span (``sweep``, ``dedupe``, ...) is charged to the layer of the
#: nearest enclosing benchmark span.
SPAN_LAYER = {
    "kernels.plan.ax_m1": "kernels.plan",
    "kernels.dispatch.ax_m": "kernels.dispatch",
    "kernels.dispatch.ax_m1": "kernels.dispatch",
    "kernels.compressed.ttsv": "kernels.compressed",
    "kernels.compressed.ax_m1": "kernels.compressed",
    "kernels.compressed.ax_m": "kernels.compressed",
    "engine.fleet_solve": "engine",
    "core.multistart": "core.multistart",
    "core.eigenpairs": "core.eigenpairs",
    "core.dedupe": "core.eigenpairs",
    "core.classify": "core.eigenpairs",
    "core.refine": "core.refine",
    "solvers.geap.shift": "solvers",
    "solvers.qrst": "solvers",
    "parallel.fleet_solve": "parallel",
    "facade.solve": "facade",
    "mri.fit": "mri",
    "mri.extract": "mri",
    "serve.run_job": "serve",
    "resilience.checkpoint": "resilience",
}
LAYERS = sorted(set(SPAN_LAYER.values()))

_MODULES = (
    "repro", "repro.facade", "repro.engine.fleet", "repro.parallel.fleet",
    "repro.parallel.procfleet", "repro.core.multistart",
    "repro.core.eigenpairs", "repro.core.refine", "repro.core.results",
    "repro.solvers.geap", "repro.solvers.qrst", "repro.mri.fit",
    "repro.mri.fibers", "repro.kernels.plan", "repro.kernels.compressed",
    "repro.kernels.dispatch", "repro.serve.jobs", "repro.serve.server",
    "repro.serve.admission", "repro.resilience.checkpoint",
)

_REGISTRY_TOTALS = {
    "bench.ipc_bytes": "repro_fleet_ipc_payload_bytes_total",
    "bench.shm_bytes": "repro_shm_bytes_published_total",
    "bench.queue_wait_s": "repro_fleet_queue_wait_seconds",
}


def _rows(x) -> int:
    return int(np.prod(np.shape(x)[:-1], dtype=np.int64))


def _kernel_counts(count, values, x, out, flops):
    count("bench.rows", _rows(x))
    count("bench.flops", flops)
    count("bench.bytes", np.asarray(values).nbytes + np.asarray(x).nbytes
          + np.asarray(out).nbytes)


def _registry_total(reg, name: str) -> float:
    metric = reg.get(name)
    if metric is None:
        return 0.0
    total = 0.0
    for _, series in metric.series_items():
        total += getattr(series, "sum", None) or getattr(series, "value", 0.0)
    return float(total)


class Tracer:
    """Owns the wrappers and the process-wide :class:`Recorder` they feed.

    The recorder is thread-local in the program, so each serve runner
    thread records one job into its own recorder and :meth:`merge` folds
    it in under a lock.  ``job_sample`` traces one job in that many: a
    traced job runs several times slower, and tracing every job would
    saturate the runners and measure another regime.  Every job's run time
    is still added to ``job_busy_s``.
    """

    def __init__(self, job_sample: int = 1):
        from repro.instrument import Recorder

        self.recorder = Recorder()
        self._lock = threading.Lock()
        self.job_sample = job_sample
        self.jobs = 0
        self.job_busy_s = 0.0
        self.queue_depth_max = 0

    def merge(self, rec) -> None:
        with self._lock:
            self.recorder.absorb(rec)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        import importlib

        for name in _MODULES:
            importlib.import_module(name)
        from repro.core.results import FleetResult
        from repro.instrument import count, current_recorder, span
        from repro.kernels.dispatch import BatchedKernelPair
        from repro.kernels.plan import KernelPlan
        from repro.serve.admission import AdmissionQueue
        from repro.util.flopcount import FlopCounter

        def timed(name, fn, after=None):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if current_recorder() is None:
                    return fn(*args, **kwargs)
                with span(name):
                    out = fn(*args, **kwargs)
                    if after is not None:
                        after(out, *args, **kwargs)
                return out
            return wrapper

        def kernel(name, fn):
            # the caller's counter still gets the flops; the span gets its own
            @functools.wraps(fn)
            def wrapper(*args, counter=None, **kwargs):
                if current_recorder() is None:
                    return fn(*args, counter=counter, **kwargs)
                values, x = args[-2:]
                fc = FlopCounter()
                with span(name):
                    out = fn(*args, counter=fc, **kwargs)
                    _kernel_counts(count, values, x, out, fc.flops)
                    if counter is not None:
                        counter.add_flops(fc.flops)
                return out
            return wrapper

        def replace(module_name, attr, make, home=True):
            # home=False leaves the defining module's own calls unwrapped
            orig = getattr(sys.modules[module_name], attr)
            new = make(orig)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "repro" or mod_name.startswith("repro.")) \
                        and getattr(mod, attr, None) is orig \
                        and (home or mod_name != module_name):
                    setattr(mod, attr, new)

        KernelPlan.ax_m1 = kernel("kernels.plan.ax_m1", KernelPlan.ax_m1)

        def wrap_suite(get_kernels):
            @functools.wraps(get_kernels)
            def wrapper(*args, **kwargs):
                suite = get_kernels(*args, **kwargs)
                if not isinstance(suite, BatchedKernelPair):
                    return suite
                return BatchedKernelPair(
                    suite.name,
                    kernel("kernels.dispatch.ax_m", suite.ax_m),
                    kernel("kernels.dispatch.ax_m1", suite.ax_m1))
            return wrapper

        sys.modules["repro.core.multistart"].get_kernels = wrap_suite(
            sys.modules["repro.core.multistart"].get_kernels)

        for fn, short in (("ttsv_compressed", "ttsv"),
                          ("ax_m1_compressed", "ax_m1"),
                          ("ax_m_compressed", "ax_m")):
            replace("repro.kernels.compressed", fn,
                    lambda f, s=short: timed(f"kernels.compressed.{s}", f),
                    home=False)

        def fleet_counts(res, *a, **k):
            count("bench.sweeps", res.sweeps)
            count("bench.lane_iters", int(np.sum(res.iterations)))

        replace("repro.engine.fleet", "fleet_solve",
                lambda f: timed("engine.fleet_solve", f, fleet_counts))

        def multistart_counts(res, *a, **k):
            count("bench.lane_iters", int(np.sum(res.iterations)))

        replace("repro.core.multistart", "multistart_sshopm",
                lambda f: timed("core.multistart", f, multistart_counts))

        def dedupe_counts(out, eigenvalues, *a, converged_mask=None, **k):
            lanes = (np.count_nonzero(converged_mask)
                     if converged_mask is not None else np.size(eigenvalues))
            count("bench.lanes_in", int(lanes))
            count("bench.pairs_out", len(out))

        replace("repro.core.eigenpairs", "dedupe_eigenpairs",
                lambda f: timed("core.dedupe", f, dedupe_counts))
        replace("repro.core.eigenpairs", "classify_eigenpair",
                lambda f: timed("core.classify", f))
        FleetResult.eigenpairs = timed("core.eigenpairs",
                                       FleetResult.eigenpairs)

        replace("repro.core.refine", "newton_refine", lambda f: timed(
            "core.refine", f,
            lambda out, *a, **k: count("bench.steps", out.iterations)))
        replace("repro.solvers.geap", "projected_shift",
                lambda f: timed("solvers.geap.shift", f))
        replace("repro.solvers.qrst", "qrst", lambda f: timed(
            "solvers.qrst", f,
            lambda out, *a, **k: count("bench.sweeps", out.iterations)))

        def parallel(fn):
            from repro.instrument.metrics import get_registry

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if current_recorder() is None:
                    return fn(*args, **kwargs)
                reg = get_registry()
                before = {k: _registry_total(reg, v)
                          for k, v in _REGISTRY_TOTALS.items()}
                t0 = time.perf_counter()
                with span("parallel.fleet_solve"):
                    report = fn(*args, **kwargs)
                    wall = time.perf_counter() - t0
                    slowest = max(report.shard_seconds, default=wall)
                    count("bench.overhead_s", max(0.0, wall - slowest))
                    imb = report.imbalance()
                    count("bench.imbalance_sum", imb if imb == imb else 1.0)
                    count("bench.requeues", report.requeues)
                    count("bench.failed_shards", len(report.failed_shards))
                    for key, name in _REGISTRY_TOTALS.items():
                        count(key, _registry_total(reg, name) - before[key])
                return report
            return wrapper

        replace("repro.parallel.fleet", "parallel_fleet_solve", parallel)
        replace("repro.facade", "solve", lambda f: timed("facade.solve", f))
        replace("repro.mri.fit", "fit_symmetric_batch",
                lambda f: timed("mri.fit", f))
        replace("repro.mri.fibers", "extract_fibers_batch",
                lambda f: timed("mri.extract", f))

        def checkpoint_counts(path, *a, **k):
            count("bench.bytes", path.stat().st_size)

        replace("repro.resilience.checkpoint", "write_checkpoint",
                lambda f: timed("resilience.checkpoint", f, checkpoint_counts))

        tracer = self

        def run_job(fn):
            from repro.instrument import Recorder

            @functools.wraps(fn)
            def wrapper(job, *args, **kwargs):
                with tracer._lock:
                    tracer.jobs += 1
                    sampled = tracer.jobs % tracer.job_sample == 0
                t0 = time.perf_counter()
                if sampled:
                    rec = Recorder()
                    with rec.activate(), span("serve.run_job"):
                        fn(job, *args, **kwargs)
                        count("bench.job_seconds", job.seconds or 0.0)
                    tracer.merge(rec)
                else:
                    fn(job, *args, **kwargs)
                with tracer._lock:
                    tracer.job_busy_s += time.perf_counter() - t0
            return wrapper

        replace("repro.serve.jobs", "run_job", run_job)

        submit = AdmissionQueue.submit

        @functools.wraps(submit)
        def submit_and_measure(queue, *args, **kwargs):
            out = submit(queue, *args, **kwargs)
            depth = len(queue)
            with self._lock:
                self.queue_depth_max = max(self.queue_depth_max, depth)
            return out

        AdmissionQueue.submit = submit_and_measure


# -- reading a trace ------------------------------------------------------


def _walk(node):
    yield node
    for child in node.children.values():
        yield from _walk(child)


def _spans(root, name):
    return [n for n in _walk(root) if n.name == name]


def _spans_in(node, below=False):
    """Benchmark spans in the subtree; with ``below``, only the nearest ones
    under ``node`` (program spans in between are looked through).

    A layer's self time is its spans' time minus the nearest benchmark
    spans nested in them; stitched worker subtrees run concurrently, so
    that difference is clamped at zero.
    """
    if not below:
        return [n for n in _walk(node) if n.name in SPAN_LAYER]
    out = []
    for child in node.children.values():
        if child.name in SPAN_LAYER:
            out.append(child)
        else:
            out.extend(_spans_in(child, below=True))
    return out


def _under(root, outer, inner):
    """Nodes named ``inner`` that sit below a node named ``outer``."""
    out = []
    for node in _spans(root, outer):
        for child in node.children.values():
            out.extend(_spans(child, inner))
    return out


def _sum(nodes, attr="seconds", key=None):
    if key is not None:
        return float(sum(n.counters.get(key, 0.0) for n in nodes))
    return float(sum(getattr(n, attr) for n in nodes))


def layer_metrics(root, wall_s: float, passes: int) -> dict:
    """Per-layer figures from a stitched span tree.

    Counts and times are per traced pass (``passes`` of them), so runs of
    different length compare.  ``wall_s`` is the traced wall time of all
    passes together.
    """
    per = 1.0 / max(1, passes)
    m: dict[str, float] = {}

    self_s = {layer: 0.0 for layer in LAYERS}
    for node in _spans_in(root):
        nested = sum(n.seconds for n in _spans_in(node, below=True))
        self_s[SPAN_LAYER[node.name]] += max(0.0, node.seconds - nested)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer] * per
    covered = sum(n.seconds for n in _spans_in(root, below=True))
    m["trace.uncovered_frac"] = (max(0.0, wall_s - covered) / wall_s
                                 if wall_s > 0 else 0.0)

    def kernel(prefix, names):
        # rows are lanes through A x^{m-1}, the call every sweep makes
        nodes = [n for name in names for n in _spans(root, name)]
        busy = _sum(nodes)
        flops = _sum(nodes, key="bench.flops")
        m[f"{prefix}.calls"] = _sum(nodes, "count") * per
        m[f"{prefix}.rows"] = _sum(_spans(root, names[-1]),
                                   key="bench.rows") * per
        m[f"{prefix}.busy_s"] = busy * per
        m[f"{prefix}.flops"] = flops * per
        m[f"{prefix}.gflops"] = flops / busy / 1e9 if busy > 0 else 0.0
        return nodes

    plan = kernel("kernels.plan", ["kernels.plan.ax_m1"])
    plan_bytes = _sum(plan, key="bench.bytes")
    m["kernels.plan.bytes_computed"] = plan_bytes * per
    m["kernels.plan.flops_per_byte"] = (
        _sum(plan, key="bench.flops") / plan_bytes if plan_bytes else 0.0)
    kernel("kernels.dispatch",
           ["kernels.dispatch.ax_m", "kernels.dispatch.ax_m1"])

    comp = [n for s in ("ttsv", "ax_m1", "ax_m")
            for n in _spans(root, f"kernels.compressed.{s}")]
    m["kernels.compressed.calls"] = _sum(comp, "count") * per
    m["kernels.compressed.busy_s"] = _sum(comp) * per

    engine = _spans(root, "engine.fleet_solve")
    lane_sweeps = _sum(_under(root, "engine.fleet_solve",
                              "kernels.plan.ax_m1"), key="bench.rows")
    m["engine.busy_s"] = _sum(engine) * per
    m["engine.sweeps"] = _sum(engine, key="bench.sweeps") * per
    m["engine.lane_sweeps"] = lane_sweeps * per
    m["engine.useful_frac"] = (_sum(engine, key="bench.lane_iters")
                               / lane_sweeps if lane_sweeps else 0.0)

    ms = _spans(root, "core.multistart")
    ms_sweeps = _sum(_under(root, "core.multistart", "kernels.dispatch.ax_m1"),
                     key="bench.rows")
    m["core.multistart.busy_s"] = _sum(ms) * per
    m["core.multistart.lane_sweeps"] = ms_sweeps * per
    m["core.multistart.useful_frac"] = (_sum(ms, key="bench.lane_iters")
                                        / ms_sweeps if ms_sweeps else 0.0)

    dd = _spans(root, "core.dedupe")
    m["core.dedupe.calls"] = _sum(dd, "count") * per
    m["core.dedupe.lanes_in"] = _sum(dd, key="bench.lanes_in") * per
    m["core.dedupe.pairs_out"] = _sum(dd, key="bench.pairs_out") * per
    m["core.dedupe.busy_s"] = _sum(dd) * per
    cl = _spans(root, "core.classify")
    m["core.classify.calls"] = _sum(cl, "count") * per
    m["core.classify.busy_s"] = _sum(cl) * per

    rf = _spans(root, "core.refine")
    m["core.refine.calls"] = _sum(rf, "count") * per
    m["core.refine.steps"] = _sum(rf, key="bench.steps") * per
    m["core.refine.busy_s"] = _sum(rf) * per

    sh = _spans(root, "solvers.geap.shift")
    m["solvers.geap.shift_calls"] = _sum(sh, "count") * per
    m["solvers.geap.shift_busy_s"] = _sum(sh) * per
    qr = _spans(root, "solvers.qrst")
    m["solvers.qrst.calls"] = _sum(qr, "count") * per
    m["solvers.qrst.sweeps"] = _sum(qr, key="bench.sweeps") * per
    m["solvers.qrst.busy_s"] = _sum(qr) * per

    par = _spans(root, "parallel.fleet_solve")
    calls = _sum(par, "count")
    m["parallel.busy_s"] = _sum(par) * per
    m["parallel.overhead_s"] = _sum(par, key="bench.overhead_s") * per
    m["parallel.imbalance"] = (_sum(par, key="bench.imbalance_sum") / calls
                               if calls else 0.0)
    for key in ("ipc_bytes", "shm_bytes", "queue_wait_s", "requeues",
                "failed_shards"):
        m[f"parallel.{key}"] = _sum(par, key=f"bench.{key}") * per

    m["facade.route_s"] = self_s["facade"] * per
    fit = _spans(root, "mri.fit")
    ext = _spans(root, "mri.extract")
    m["mri.fit_s"] = _sum(fit) * per
    m["mri.select_s"] = (_sum(ext) - _sum(_under(root, "mri.extract",
                                                 "core.multistart"))) * per

    ck = _spans(root, "resilience.checkpoint")
    m["resilience.checkpoint.writes"] = _sum(ck, "count") * per
    m["resilience.checkpoint.bytes"] = _sum(ck, key="bench.bytes") * per
    m["resilience.checkpoint.busy_s"] = _sum(ck) * per
    return m


def serve_job_metrics(root, gauges: dict, runners: int,
                      span_s: float) -> dict:
    """Server-side figures: per traced job from the merged
    ``serve.run_job`` spans, runner busy time over every job."""
    jobs = _spans(root, "serve.run_job")
    n = max(1.0, _sum(jobs, "count"))
    run_s = _sum(jobs)
    chunks = _sum(_under(root, "serve.run_job", "parallel.fleet_solve"))
    ckpt = _sum(_under(root, "serve.run_job", "resilience.checkpoint"))
    return {
        "serve.queue_wait_ms": 1e3 * (_sum(jobs, key="bench.job_seconds")
                                      - run_s) / n,
        "serve.run_job_ms": 1e3 * run_s / n,
        "serve.job_self_ms": 1e3 * (run_s - chunks - ckpt) / n,
        "serve.runner_busy_frac": (gauges.get("serve.job_busy_s", 0.0)
                                   / (runners * span_s)),
        "serve.queue_depth_max": gauges.get("serve.queue_depth_max", 0),
    }
