"""``sshopm``, ``adaptive_sshopm`` and ``geap`` against the retired
per-solver loops kept in :mod:`tests.singlestart_reference`.

The three solvers run one shared shifted power loop and differ only in
how each step picks its shift, so the arithmetic is the old arithmetic:
lambda, x, ``iterations``, ``converged``, ``residual`` and
``lambda_history`` must match bit for bit, guarded failures must carry
the same reason, iteration and last iterate, and the span tree, the
telemetry records and the solver-run metrics must match.  Two
differences are allowed: ``adaptive_sshopm``'s final telemetry record
may carry its last shift (the old loop wrote NaN), and
``adaptive_sshopm``/``geap`` may charge the ``4n + 1`` update flops per
step that ``sshopm`` always charged.
"""

import math

import numpy as np
import pytest

from repro.instrument import recording
from repro.instrument.metrics import use_registry
from repro.instrument.telemetry import COLUMNS
from repro.kernels.dispatch import get_kernels
from repro.kernels.plan import get_plan
from repro.resilience.faults import nan_injecting_pair
from repro.resilience.guards import SolveFailure
from repro.solvers import adaptive_sshopm, geap, sshopm, suggested_shift
from repro.symtensor.random import (
    kolda_mayo_example_3x3x3,
    random_odeco_tensor,
    random_symmetric_tensor,
)
from repro.symtensor.storage import SymmetricTensor

from tests.singlestart_reference import ref_adaptive_sshopm, ref_geap, ref_sshopm

FIXTURES = {
    "odeco3": lambda: random_odeco_tensor(3, 4, rng=5)[0],
    "odeco4": lambda: random_odeco_tensor(4, 3, rng=7)[0],
    **{f"exact_n2_m{m}": (lambda m=m: random_symmetric_tensor(m, 2, rng=100 + m))
       for m in (3, 4, 5, 6)},
    "kolda_mayo": kolda_mayo_example_3x3x3,
    "random_m4_n6": lambda: random_symmetric_tensor(4, 6, rng=3),
}

PAIRS = {
    "sshopm": (sshopm, ref_sshopm),
    "adaptive_sshopm": (adaptive_sshopm, ref_adaptive_sshopm),
    "geap": (geap, ref_geap),
}


def start_for(tensor, seed=0):
    return np.random.default_rng(seed).standard_normal(tensor.n)


def same_float(a, b):
    return (math.isnan(a) and math.isnan(b)) or a == b


def assert_same_result(got, want):
    assert same_float(got.eigenvalue, want.eigenvalue)
    np.testing.assert_array_equal(got.eigenvector, want.eigenvector)
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert same_float(got.residual, want.residual)
    np.testing.assert_array_equal(got.lambda_history, want.lambda_history)


def span_rows(rec):
    """The span tree without timings: (depth, name, count, counters)."""
    return [(depth, node.name, node.count, dict(node.counters))
            for depth, node in rec.root.walk()]


def metric_rows(registry):
    """Every metric series; the wall-seconds histogram keeps only its
    sample count (its values are timings)."""
    rows = []
    for metric in registry.snapshot()["metrics"]:
        for series in metric["series"]:
            series = dict(series)
            if metric["name"] == "repro_solver_seconds":
                series = {"labels": series["labels"], "count": series["count"]}
            rows.append((metric["name"], series))
    return rows


def observe(fn, tensor, **kw):
    """Run ``fn`` traced, in a fresh registry; return what it produced:
    the result or the raised SolveFailure, spans, metrics, telemetry.

    The shape's kernel plan is built first, so both sides of a comparison
    see plan-cache hits (a cold first call would add miss and disk-cache
    series that say nothing about the solver)."""
    get_plan(tensor.m, tensor.n)
    with use_registry() as reg, recording() as rec:
        try:
            out = fn(tensor, **kw)
        except SolveFailure as failure:
            out = failure
    tel = out.telemetry
    return {
        "out": out,
        "spans": span_rows(rec),
        "metrics": metric_rows(reg),
        "telemetry": None if tel is None else (tel.name, tel.meta, tel.records),
    }


def update_flops(tensor, iterations):
    return iterations * (4 * tensor.n + 1)


def assert_same_trace(name, tensor, got, want):
    """Spans, metrics and telemetry agree up to the allowed differences."""
    iterations = (got["out"].iteration if isinstance(got["out"], SolveFailure)
                  else got["out"].iterations)
    got_spans, want_spans = got["spans"], want["spans"]
    assert [r[:3] for r in got_spans] == [r[:3] for r in want_spans]
    if name != "sshopm":
        # the shared loop may charge the update flops for every policy
        extra = update_flops(tensor, iterations)
        got_iter = [r for r in got_spans if r[1] == "iteration"]
        want_iter = [r for r in want_spans if r[1] == "iteration"]
        for g, w in zip(got_iter, want_iter):
            want_flops = w[3].get("flops", 0)
            assert g[3].get("flops", 0) in (want_flops, want_flops + extra)
        got_spans = [r for r in got_spans if r[1] != "iteration"]
        want_spans = [r for r in want_spans if r[1] != "iteration"]
    assert got_spans == want_spans
    assert got["metrics"] == want["metrics"]

    if want["telemetry"] is None:
        assert got["telemetry"] is None
        return
    g_name, g_meta, g_rows = got["telemetry"]
    w_name, w_meta, w_rows = want["telemetry"]
    assert (g_name, g_meta) == (w_name, w_meta)
    g_rows = np.array([[r[c] for c in COLUMNS] for r in g_rows])
    w_rows = np.array([[r[c] for c in COLUMNS] for r in w_rows])
    assert g_rows.shape == w_rows.shape
    if name == "adaptive_sshopm" and not isinstance(got["out"], SolveFailure):
        # the final record may carry the last shift instead of NaN
        shift = COLUMNS.index("shift")
        assert math.isnan(w_rows[-1, shift])
        g_rows[-1, shift] = w_rows[-1, shift]
    np.testing.assert_array_equal(g_rows, w_rows)


def assert_equivalent(name, tensor, **kw):
    new, ref = PAIRS[name]
    # untraced hot path first: no recorder, no telemetry
    plain_got, plain_want = new(tensor, **kw), ref(tensor, **kw)
    assert_same_result(plain_got, plain_want)
    assert plain_got.telemetry is None and plain_want.telemetry is None
    got, want = observe(new, tensor, **kw), observe(ref, tensor, **kw)
    assert_same_result(got["out"], want["out"])
    assert_same_result(got["out"], plain_got)
    assert_same_trace(name, tensor, got, want)
    return got["out"]


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
class TestSSHOPM:
    @pytest.mark.parametrize("sign", [1.0, 0.0, -1.0], ids=["pos", "zero", "neg"])
    @pytest.mark.parametrize("variant", ["precomputed", "vectorized", "unrolled"])
    def test_shift_and_kernels(self, fixture, sign, variant):
        tensor = FIXTURES[fixture]()
        alpha = sign * suggested_shift(tensor)
        res = assert_equivalent(
            "sshopm", tensor, x0=start_for(tensor), alpha=alpha,
            kernels=get_kernels(variant, tensor.m, tensor.n),
            tol=1e-12, max_iters=400)
        assert res.iterations > 0

    def test_flop_totals(self, fixture):
        from repro.util.flopcount import FlopCounter

        tensor = FIXTURES[fixture]()
        kw = dict(x0=start_for(tensor, 1), alpha=suggested_shift(tensor),
                  tol=1e-12, max_iters=200)
        counts = []
        for fn in (sshopm, ref_sshopm):
            with recording() as rec:
                counter = FlopCounter()
                fn(tensor, counter=counter, **kw)
            counts.append((counter.flops, rec.total("flops")))
            plain = FlopCounter()
            fn(tensor, counter=plain, **kw)
            counts.append(plain.flops)
        assert counts[0] == counts[2]
        assert counts[1] == counts[3]
        assert counts[0][0] == counts[0][1] > 0


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
@pytest.mark.parametrize("name", ["adaptive_sshopm", "geap"])
@pytest.mark.parametrize("mode", ["max", "min"])
def test_adaptive_policies(fixture, name, mode):
    tensor = FIXTURES[fixture]()
    res = assert_equivalent(name, tensor, x0=start_for(tensor, 2), mode=mode,
                            tol=1e-12, max_iters=300)
    assert res.iterations > 0


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_random_start_and_config(name):
    from repro.core.config import SolveConfig

    tensor = random_symmetric_tensor(4, 3, rng=21)
    cfg = SolveConfig(tol=1e-11, max_iters=120, rng=5)
    kw = {"alpha": 2.0} if name == "sshopm" else {}
    assert_equivalent(name, tensor, config=cfg, **kw)


@pytest.mark.parametrize("name", sorted(PAIRS))
class TestGuards:
    def test_nan_kernels(self, name):
        tensor = random_symmetric_tensor(3, 3, rng=4)
        pair = nan_injecting_pair(get_kernels("precomputed", 3, 3))
        kw = dict(x0=start_for(tensor), kernels=pair, guards=True, max_iters=50)
        new, ref = PAIRS[name]
        got, want = observe(new, tensor, **kw), observe(ref, tensor, **kw)
        g, w = got["out"], want["out"]
        assert isinstance(g, SolveFailure) and isinstance(w, SolveFailure)
        assert (g.reason, g.solver, g.iteration) == (w.reason, w.solver, w.iteration)
        np.testing.assert_array_equal(g.last_iterate, w.last_iterate)
        assert same_float(g.last_lambda, w.last_lambda)
        np.testing.assert_array_equal(g.lambda_history, w.lambda_history)
        assert_same_trace(name, tensor, got, want)

    def test_nonfinite_tensor(self, name):
        """A NaN entry trips the shift rule's own guard in the adaptive
        policies and the update guard in sshopm."""
        base = random_symmetric_tensor(3, 3, rng=4)
        values = base.values.copy()
        values[1] = np.nan
        tensor = SymmetricTensor(values, base.m, base.n)
        kw = dict(x0=start_for(tensor), guards=True, max_iters=50)
        new, ref = PAIRS[name]
        got, want = observe(new, tensor, **kw), observe(ref, tensor, **kw)
        g, w = got["out"], want["out"]
        assert type(g) is type(w)
        if isinstance(w, SolveFailure):
            assert (g.reason, g.iteration) == (w.reason, w.iteration)
            np.testing.assert_array_equal(g.last_iterate, w.last_iterate)
        else:
            assert_same_result(g, w)
        assert_same_trace(name, tensor, got, want)

    def test_unguarded_collapse(self, name):
        """Without guards a zero update ends the run unconverged."""
        tensor, basis, _ = random_odeco_tensor(4, 3, rank=1, rng=2)
        _, _, vt = np.linalg.svd(basis)
        kw = dict(x0=vt[-1], max_iters=20)
        if name == "sshopm":
            kw["alpha"] = 0.0
        new, ref = PAIRS[name]
        assert_same_result(new(tensor, **kw), ref(tensor, **kw))


def test_geap_stop_hook():
    tensor = random_symmetric_tensor(4, 5, rng=8)

    def stop_after(k):
        polls = iter(range(k + 1))
        return lambda: next(polls) >= k

    for k in (0, 1, 3):
        got = observe(geap, tensor, x0=start_for(tensor), stop=stop_after(k))
        want = observe(ref_geap, tensor, x0=start_for(tensor), stop=stop_after(k))
        assert got["out"].iterations == k
        assert_same_result(got["out"], want["out"])
        assert_same_trace("geap", tensor, got, want)
