"""Solver zoo method comparison on the reference workload.

The PR-10 registry routes ``repro.solve(method=...)`` between three
independent eigensolvers; this benchmark measures what each one buys on
the paper's reference workload (64 tensors in R^[4,6], 32 shared
starts):

* ``sshopm`` — the fleet engine's convex-shift lockstep sweep: the
  throughput baseline.
* ``geap`` — the same fleet lanes with a per-sweep projected-Hessian
  shift (arXiv:1007.1267): one batched Hessian kernel
  (``KernelPlan.ax_m2``) and one stacked ``eigvalsh`` over the live
  lanes per sweep.
* ``qrst`` — dense tensor QR with deflation per tensor
  (arXiv:1411.1926): no starts at all, a full slate of extreme
  eigenpairs per run, but dense ``n^m`` work, each pair polished by
  Newton steps on the plan kernels.

Floors, as same-run wall-time ratios against ``sshopm``: GEAP at most
6x and QRST at most 4x (about 91x and 7.9x while the Hessian, residual
and Newton paths ran on the interpreted ``kernels/compressed`` loops).
The distinct-pair and converged-lane counts are pinned to the recorded
ones, so a speedup cannot come from doing less.

The measured (pairs found, sweeps, wall time) triples feed the
``method="auto"`` heuristic table (``repro.solvers.AUTO_RULES``, see
``docs/solvers.md``); the smoke-sized mirror of this workload is
recorded through the ``repro-bench/1`` harness as ``method_compare`` so
``repro bench-compare`` gates regressions.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import format_table, report
from repro.engine import fleet_solve
from repro.solvers import qrst_batch
from repro.symtensor import random_symmetric_batch
from repro.util.rng import make_rng

T, M, N, V = 64, 4, 6, 32
ALPHA, TOL, MAX_ITERS = 6.0, 1e-8, 300

#: wall-time ceilings relative to sshopm in the same run
MAX_RATIO = {"geap": 6.0, "qrst": 4.0}
#: (distinct pairs, converged lanes) per method on this workload
EXPECTED = {"sshopm": (298, 2022), "geap": (296, 2008), "qrst": (329, 329)}


@pytest.fixture(scope="module")
def workload():
    batch = random_symmetric_batch(T, M, N, rng=0)
    rng = make_rng(1)
    starts = rng.standard_normal((V, N))
    starts /= np.linalg.norm(starts, axis=1, keepdims=True)
    return batch, starts


def _distinct_pairs(result, batch):
    return sum(len(pairs) for pairs in result.eigenpairs(batch))


def _runners(batch, starts):
    return {
        "sshopm": lambda: fleet_solve(batch, starts=starts, alpha=ALPHA,
                                      tol=TOL, max_iters=MAX_ITERS),
        "geap": lambda: fleet_solve(batch, starts=starts, tol=TOL,
                                    max_iters=MAX_ITERS, adaptive="geap"),
        "qrst": lambda: qrst_batch(batch, num_starts=V, tol=TOL,
                                   max_iters=MAX_ITERS, rng=2),
    }


@pytest.mark.benchmark(group="solver-methods")
def test_report_method_comparison(benchmark, workload):
    batch, starts = workload
    runners = _runners(batch, starts)

    def run():
        rows, stats = [], {}
        for name, fn in runners.items():
            fn()  # warm: plan cache, codegen, dense conversion
            t0 = time.perf_counter()
            res = fn()
            seconds = time.perf_counter() - t0
            pairs = _distinct_pairs(res, batch)
            lanes = int(res.converged.sum())
            stats[name] = (seconds, pairs, lanes, int(res.sweeps))
            rows.append([name, f"{seconds * 1e3:9.1f}", int(res.sweeps),
                         pairs, f"{lanes}/{res.converged.size}",
                         f"{pairs / seconds:8.1f}"])
        return rows, stats

    rows, stats = benchmark.pedantic(run, rounds=1, iterations=1)

    report(
        "method_compare",
        format_table(
            f"Solver methods on the reference workload "
            f"(T={T} tensors, m={M}, n={N}, V={V} starts)",
            ["method", "ms", "sweeps", "pairs", "lanes conv", "pairs/s"],
            rows,
        ),
    )

    # every method must actually produce spectra on this workload; the
    # agreement gate on known-answer fixtures lives in tests/test_solver_zoo.py
    for name, (seconds, pairs, lanes, _) in stats.items():
        assert (pairs, lanes) == EXPECTED[name], (
            f"{name}: {pairs} pairs / {lanes} converged lanes, "
            f"expected {EXPECTED[name]}")
        assert seconds > 0.0
    base = stats["sshopm"][0]
    for name, ceiling in MAX_RATIO.items():
        ratio = stats[name][0] / base
        assert ratio <= ceiling, (
            f"{name} took {ratio:.1f}x sshopm's wall time (floor {ceiling}x)")
    # qrst is deterministic: a repeat run returns the identical spectrum
    a = qrst_batch(batch.subset(np.arange(4)), num_starts=V, tol=TOL,
                   max_iters=MAX_ITERS, rng=2)
    b = qrst_batch(batch.subset(np.arange(4)), num_starts=V, tol=TOL,
                   max_iters=MAX_ITERS, rng=2)
    np.testing.assert_array_equal(a.converged, b.converged)
    np.testing.assert_allclose(
        a.eigenvalues[a.converged], b.eigenvalues[b.converged],
        rtol=0, atol=0)
