"""Tests for the metrics registry (repro.instrument.metrics): counter /
gauge / histogram semantics, P² streaming percentiles, label series,
snapshot/merge, thread-local registry override, and the solver emission
that the parallel executor aggregates across workers."""

import threading

import numpy as np
import pytest

from repro.instrument.metrics import (
    METRICS_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    P2Quantile,
    default_buckets,
    default_registry,
    get_registry,
    observe_solver_run,
    use_registry,
)


class TestP2Quantile:
    def test_exact_below_five_observations(self):
        p = P2Quantile(0.5)
        for x in (5.0, 1.0, 3.0):
            p.observe(x)
        assert p.value == 3.0

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_tracks_numpy_percentile_uniform(self, q):
        rng = np.random.default_rng(0)
        data = rng.uniform(0, 100, size=5000)
        p = P2Quantile(q)
        for x in data:
            p.observe(float(x))
        exact = float(np.percentile(data, q * 100))
        # P² is an approximation; a few percent of the range is its promise
        assert abs(p.value - exact) < 5.0

    def test_tracks_numpy_percentile_lognormal(self):
        rng = np.random.default_rng(1)
        data = rng.lognormal(0.0, 1.0, size=5000)
        p = P2Quantile(0.5)
        for x in data:
            p.observe(float(x))
        exact = float(np.percentile(data, 50))
        assert abs(p.value - exact) < 0.2 * exact

    def test_empty_is_nan(self):
        assert np.isnan(P2Quantile(0.9).value)


class TestCounterGauge:
    def test_counter_accumulates(self):
        c = Counter("c_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c_total").inc(-1)

    def test_gauge_set_inc_dec(self):
        g = Gauge("g")
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value == 13

    def test_labeled_series_are_independent(self):
        c = Counter("req_total", labelnames=("solver",))
        c.labels(solver="a").inc(1)
        c.labels(solver="b").inc(2)
        assert c.labels(solver="a").value == 1
        assert c.labels(solver="b").value == 2

    def test_unknown_label_rejected(self):
        c = Counter("req_total", labelnames=("solver",))
        with pytest.raises(ValueError):
            c.labels(nope="x")


class TestHistogram:
    def test_count_sum_min_max(self):
        h = Histogram("h_seconds")
        for v in (0.1, 0.2, 0.4):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(0.7)

    def test_percentile_close_to_exact(self):
        rng = np.random.default_rng(2)
        data = rng.uniform(0.001, 10.0, size=2000)
        h = Histogram("h_seconds")
        for v in data:
            h.observe(float(v))
        exact = float(np.percentile(data, 90))
        assert h.percentile(0.9) == pytest.approx(exact, rel=0.1)

    def test_observe_many_matches_scalar_loop(self):
        rng = np.random.default_rng(3)
        data = rng.uniform(0.01, 100.0, size=500)
        h1 = Histogram("a_seconds")
        h2 = Histogram("b_seconds")
        h1.observe_many(data)
        for v in data:
            h2.observe(float(v))
        s1 = h1.snapshot()["series"][0]
        s2 = h2.snapshot()["series"][0]
        assert s1["bucket_counts"] == s2["bucket_counts"]
        assert s1["count"] == s2["count"]
        assert s1["sum"] == pytest.approx(s2["sum"])

    def test_default_buckets_are_sorted_125(self):
        b = default_buckets()
        assert list(b) == sorted(b)
        assert 1.0 in b and 2.0 in b and 5.0 in b

    def test_merge_adds_buckets_exactly(self):
        h1 = Histogram("h_seconds")
        h2 = Histogram("h_seconds")
        h1.observe(0.5)
        h2.observe(1.5)
        h2.observe(3.0)
        reg1, reg2 = MetricsRegistry(), MetricsRegistry()
        reg1._metrics["h_seconds"] = h1
        reg2._metrics["h_seconds"] = h2
        reg1.merge(reg2)
        assert h1.count == 3
        assert h1.sum == pytest.approx(5.0)
        # percentile still answers (bucket interpolation after merge)
        assert 0.4 < h1.percentile(0.5) < 3.1


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("x_total") is reg.counter("x_total")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError):
            reg.gauge("x_total")

    def test_labelnames_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total", labelnames=("a",))
        with pytest.raises(ValueError):
            reg.counter("x_total", labelnames=("b",))

    def test_snapshot_schema_and_roundtrip_merge(self):
        reg = MetricsRegistry()
        reg.counter("runs_total").inc(3)
        reg.gauge("width").set(7)
        reg.histogram("t_seconds").observe(0.25)
        snap = reg.snapshot()
        assert snap["schema"] == METRICS_SCHEMA

        other = MetricsRegistry()
        other.merge(snap)  # merge accepts a plain snapshot dict
        other.merge(snap)
        assert other.counter("runs_total").value == 6
        assert other.gauge("width").value == 7  # last write wins
        assert other.histogram("t_seconds").count == 2

    def test_use_registry_is_thread_local(self):
        outer = MetricsRegistry()
        seen = {}

        def child():
            # the override in the main thread must not leak here
            seen["child"] = get_registry()

        with use_registry(outer):
            assert get_registry() is outer
            t = threading.Thread(target=child)
            t.start()
            t.join()
        assert seen["child"] is default_registry()
        assert get_registry() is default_registry()


class TestSolverEmission:
    def test_sshopm_emits_run_metrics(self):
        from repro.core import sshopm
        from repro.symtensor import random_symmetric_tensor

        tensor = random_symmetric_tensor(3, 4, rng=0)
        with use_registry() as reg:
            sshopm(tensor, alpha=2.0, max_iters=100, rng=1)
        runs = reg.counter("repro_solver_runs_total", labelnames=("solver",))
        assert runs.labels(solver="sshopm").value == 1
        hist = reg.get("repro_solver_seconds")
        assert hist.labels(solver="sshopm").count == 1

    def test_multistart_counts_every_pair(self):
        from repro.core.multistart import multistart_sshopm
        from repro.symtensor.random import random_symmetric_batch

        batch = random_symmetric_batch(3, 3, 4, rng=2)
        with use_registry() as reg:
            multistart_sshopm(batch, num_starts=5, alpha=1.0, max_iters=60,
                              rng=3)
        pairs = reg.counter("repro_solver_pairs_total", labelnames=("solver",))
        assert pairs.labels(solver="multistart_sshopm").value == 15

    def test_observe_solver_run_iterations_array(self):
        with use_registry() as reg:
            observe_solver_run("x", 0.1, np.array([[3, 5], [7, 9]]), 4, 4)
        iters = reg.get("repro_solver_iterations")
        assert iters.labels(solver="x").count == 4

    def test_parallel_executor_merges_worker_registries(self):
        from repro.parallel import parallel_fleet_solve
        from repro.symtensor.random import random_symmetric_batch

        batch = random_symmetric_batch(6, 3, 4, rng=4)
        with use_registry() as reg:
            parallel_fleet_solve(batch, workers=3, num_starts=4, alpha=1.0,
                                 max_iters=40, executor="thread")
        runs = reg.counter("repro_solver_runs_total", labelnames=("solver",))
        pairs = reg.counter("repro_solver_pairs_total", labelnames=("solver",))
        assert runs.labels(solver="fleet_solve").value == 3  # one per shard
        assert pairs.labels(solver="fleet_solve").value == 24
