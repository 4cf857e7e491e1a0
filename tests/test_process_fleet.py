"""Tests for the zero-copy process fleet: the shared-memory tensor
store, the communication cost model behind ``executor="auto"``, the
externally-owned ``FleetWorkspace``, and the process executor's
bit-for-bit / no-leak / O(result)-IPC guarantees."""

import pickle
import warnings

import numpy as np
import pytest

import repro
from repro.core.config import SolveConfig
from repro.core.multistart import starting_vectors
from repro.engine.fleet import FleetWorkspace, fleet_solve
from repro.instrument.metrics import use_registry
from repro.parallel.comm import (
    EXECUTORS,
    choose_executor,
    estimate_fleet_comm,
)
from repro.parallel.fleet import STEAL_SPLIT_FACTOR, parallel_fleet_solve
from repro.parallel.shm import (
    SHM_AVAILABLE,
    SharedResultBlock,
    SharedTensorStore,
    active_segments,
)
from repro.symtensor.random import random_symmetric_batch

pytestmark = pytest.mark.skipif(
    not SHM_AVAILABLE, reason="multiprocessing.shared_memory unavailable")


@pytest.fixture
def batch():
    return random_symmetric_batch(8, 4, 3, rng=np.random.default_rng(11))


@pytest.fixture
def starts():
    return starting_vectors(6, 3, rng=5)


def _series_total(reg, name):
    for m in reg.snapshot()["metrics"]:
        if m["name"] == name:
            return sum(s.get("value", 0.0) for s in m["series"])
    return 0.0


def assert_bitwise(a, b):
    np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
    np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)
    np.testing.assert_array_equal(a.converged, b.converged)
    np.testing.assert_array_equal(a.iterations, b.iterations)
    np.testing.assert_array_equal(a.failed, b.failed)


class TestSharedTensorStore:
    def test_publish_attach_roundtrip(self, batch, starts):
        store = SharedTensorStore.publish(batch, starts)
        try:
            attached = store.handle().attach()
            np.testing.assert_array_equal(attached.values, batch.values)
            np.testing.assert_array_equal(attached.starts, starts)
            assert (attached.m, attached.n) == (batch.m, batch.n)
            attached.dispose()
        finally:
            store.dispose()
        assert active_segments() == []

    def test_batch_view_is_zero_copy(self, batch, starts):
        with SharedTensorStore.publish(batch, starts) as store:
            shard = store.batch(2, 5)
            assert len(shard) == 3
            assert np.shares_memory(shard.values, store.values)
            np.testing.assert_array_equal(shard.values, batch.values[2:5])

    def test_attached_views_are_readonly(self, batch, starts):
        store = SharedTensorStore.publish(batch, starts)
        try:
            attached = store.handle().attach()
            with pytest.raises((ValueError, RuntimeError)):
                attached.values[0, 0] = 1.0
            attached.dispose()
        finally:
            store.dispose()

    def test_kernel_tables_roundtrip(self, batch, starts):
        from repro.kernels.plan import get_plan
        from repro.kernels.tables import tables_to_arrays

        plan = get_plan(batch.m, batch.n, "vectorized", "numpy")
        with SharedTensorStore.publish(batch, starts,
                                       tables=plan.tables) as store:
            rebuilt = store.kernel_tables()
            assert rebuilt is not None
            orig = tables_to_arrays(plan.tables)
            back = tables_to_arrays(rebuilt)
            assert orig.keys() == back.keys()
            for key in orig:
                np.testing.assert_array_equal(orig[key], back[key])
        assert active_segments() == []

    def test_handle_is_small(self, batch, starts):
        """The entire per-worker tensor payload is the pickled handle —
        descriptors, not data."""
        with SharedTensorStore.publish(batch, starts) as store:
            nbytes = len(pickle.dumps(store.handle()))
            assert nbytes < 4096
            assert nbytes < batch.values.nbytes

    def test_dispose_is_idempotent(self, batch, starts):
        store = SharedTensorStore.publish(batch, starts)
        store.dispose()
        store.dispose()
        assert active_segments() == []

    def test_segment_names_have_no_colon(self, batch, starts):
        """Colons corrupt the resource tracker's ``CMD:name:rtype`` pipe
        protocol, so table tags must be sanitized out of segment names."""
        with SharedTensorStore.publish(batch, starts) as store:
            for seg in store._segments.values():
                assert ":" not in seg.name


class TestSharedResultBlock:
    def test_allocate_prefills_unsolved(self):
        with SharedResultBlock.allocate(4, 3, 5) as block:
            assert np.isnan(block.arrays["eigenvalues"]).all()
            assert not block.arrays["converged"].any()
            assert not block.arrays["failed"].any()

    def test_workspace_writes_land_in_snapshot(self):
        block = SharedResultBlock.allocate(4, 3, 5)
        try:
            ws = block.workspace(1, 3)
            ws.eigenvalues[...] = 7.0
            ws.converged[...] = True
            snap = block.snapshot()
        finally:
            block.dispose()
        assert (snap["eigenvalues"][1:3] == 7.0).all()
        assert snap["converged"][1:3].all()
        assert np.isnan(snap["eigenvalues"][0]).all()
        assert np.isnan(snap["eigenvalues"][3]).all()
        assert active_segments() == []


class TestFleetWorkspace:
    def test_out_param_is_bitwise_equivalent(self, batch, starts):
        base = fleet_solve(batch, starts=starts, alpha=4.0, max_iters=200)
        ws = FleetWorkspace.allocate(len(batch), starts.shape[0], batch.n,
                                     np.float64)
        res = fleet_solve(batch, starts=starts, alpha=4.0, max_iters=200,
                          out=ws)
        assert_bitwise(base, res)
        # the result really is a view over the caller's workspace
        assert np.shares_memory(res.eigenvalues, ws.eigenvalues)

    def test_lane_views_validate_layout(self):
        ws = FleetWorkspace.allocate(3, 2, 4, np.float64)
        with pytest.raises(ValueError):
            ws.lane_views(3, 2, 5, np.float64)  # wrong n
        with pytest.raises(ValueError):
            ws.lane_views(4, 2, 4, np.float64)  # wrong T


class TestCommModel:
    def _estimate(self, workers=4):
        return estimate_fleet_comm(64, 126, 32, 6, workers, m=4)

    def test_thread_tier_moves_no_bytes(self):
        est = self._estimate()
        assert est.pipe_bytes("thread") == 0

    def test_shm_pipe_traffic_excludes_tensor_payload(self):
        est = self._estimate()
        assert est.shm_pipe_bytes < est.tensor_bytes
        assert est.pipe_bytes("process") < est.pipe_bytes("pickle")

    def test_intensity_positive_and_finite(self):
        est = self._estimate()
        for tier in ("process", "pickle"):
            assert np.isfinite(est.intensity(tier)) and est.intensity(tier) > 0

    def test_single_worker_chooses_thread(self):
        choice = choose_executor(self._estimate(workers=1), cpu_count=8)
        assert choice.executor == "thread"

    def test_single_core_chooses_thread(self):
        choice = choose_executor(self._estimate(), cpu_count=1)
        assert choice.executor == "thread"

    def test_large_compute_on_many_cores_chooses_process(self):
        est = estimate_fleet_comm(512, 5000, 64, 10, 8, m=4, sweeps=200)
        choice = choose_executor(est, cpu_count=8)
        assert choice.executor == "process"
        assert choice.process_seconds < choice.thread_seconds

    def test_choice_carries_reason(self):
        choice = choose_executor(self._estimate(), cpu_count=4)
        assert choice.executor in ("thread", "process")
        assert choice.reason


class TestProcessExecutor:
    def test_bitwise_identical_to_single_worker(self, batch, starts):
        one = parallel_fleet_solve(batch, workers=1, starts=starts,
                                   alpha=4.0, max_iters=200)
        proc = parallel_fleet_solve(batch, workers=2, starts=starts,
                                    alpha=4.0, max_iters=200,
                                    executor="process")
        assert_bitwise(one.result, proc.result)
        assert proc.executor == "process"
        assert proc.workers == 2
        assert active_segments() == []

    def test_steal_oversplits_and_stays_bitwise(self, batch, starts):
        one = parallel_fleet_solve(batch, workers=1, starts=starts,
                                   alpha=4.0, max_iters=200)
        proc = parallel_fleet_solve(batch, workers=2, starts=starts,
                                    alpha=4.0, max_iters=200,
                                    executor="process", steal=True)
        assert_bitwise(one.result, proc.result)
        assert len(proc.shard_sizes) == min(len(batch),
                                            2 * STEAL_SPLIT_FACTOR)
        assert sum(proc.shard_sizes) == len(batch)
        assert active_segments() == []

    def test_auto_executor_resolves_and_runs(self, batch, starts):
        rep = parallel_fleet_solve(batch, workers=2, starts=starts,
                                   alpha=4.0, max_iters=100,
                                   executor="auto")
        assert rep.executor in ("thread", "process")
        assert rep.executor in EXECUTORS

    def test_invalid_executor_rejected(self, batch):
        with pytest.raises(ValueError, match="executor"):
            parallel_fleet_solve(batch, workers=2, num_starts=4, rng=0,
                                 executor="mpi")

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_unknown_fault_kind_rejected(self, batch, executor):
        with pytest.raises(ValueError, match="crsh"):
            parallel_fleet_solve(batch, workers=2, num_starts=4, rng=0,
                                 executor=executor, faults={0: "crsh"})

    def test_workers_clamped_with_warning(self, starts):
        small = random_symmetric_batch(2, 4, 3, rng=np.random.default_rng(3))
        with pytest.warns(RuntimeWarning, match="clamping"):
            rep = parallel_fleet_solve(small, workers=8, starts=starts,
                                       alpha=4.0, max_iters=100)
        assert rep.workers <= 2
        assert sum(rep.shard_sizes) == 2

    def test_config_executor_field_routes(self, batch, starts):
        cfg = SolveConfig(executor="process")
        rep = parallel_fleet_solve(batch, workers=2, starts=starts,
                                   alpha=4.0, max_iters=100, config=cfg)
        assert rep.executor == "process"

    def test_report_shard_metadata(self, batch, starts):
        rep = parallel_fleet_solve(batch, workers=2, starts=starts,
                                   alpha=4.0, max_iters=100,
                                   executor="process")
        assert len(rep.shard_seconds) == len(rep.shard_sizes)
        assert all(s >= 0 for s in rep.shard_seconds)
        assert np.isfinite(rep.imbalance()) and rep.imbalance() >= 1.0
        assert rep.requeues == 0 and rep.failed_shards == []

    def test_single_worker_report_has_shard_seconds(self, batch, starts):
        rep = parallel_fleet_solve(batch, workers=1, starts=starts,
                                   alpha=4.0, max_iters=100)
        assert len(rep.shard_seconds) == 1
        assert rep.shard_seconds[0] > 0
        assert rep.imbalance() == 1.0

    def test_ipc_payload_is_o_result_not_o_tensor(self, batch, starts):
        """Per-shard pipe traffic is descriptors + float metadata; the
        tensor payload travels once, through shared memory."""
        with use_registry() as reg:
            parallel_fleet_solve(batch, workers=2, starts=starts,
                                 alpha=4.0, max_iters=200,
                                 executor="process")
        published = _series_total(reg, "repro_shm_bytes_published_total")
        descriptor = _series_total(
            reg, "repro_fleet_ipc_payload_bytes_total")
        assert published >= batch.values.nbytes
        assert 0 < descriptor < batch.values.nbytes
        assert descriptor < 0.05 * published

    def test_publish_unlink_balance(self, batch, starts):
        with use_registry() as reg:
            parallel_fleet_solve(batch, workers=2, starts=starts,
                                 alpha=4.0, max_iters=100,
                                 executor="process")
        assert (_series_total(reg, "repro_shm_segments_total")
                == _series_total(reg, "repro_shm_segments_unlinked_total"))


class TestFacadeIntegration:
    def test_solve_process_executor_bitwise(self, batch, starts):
        one = repro.solve(batch, starts=starts, alpha=4.0, max_iters=200,
                          workers=1)
        proc = repro.solve(batch, starts=starts, alpha=4.0, max_iters=200,
                           workers=2, executor="process")
        assert proc.solver == "parallel_fleet_solve"
        assert proc.extra.executor == "process"
        assert_bitwise(one.result, proc.result)
        assert active_segments() == []

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_workers_honor_solve_config(self, batch, executor):
        cfg = SolveConfig(alpha=3.0, tol=1e-6, max_iters=20, num_starts=5)
        one = repro.solve(batch, config=cfg, rng=1)
        par = repro.solve(batch, config=cfg, rng=1, workers=2,
                          executor=executor)
        assert par.solver == "parallel_fleet_solve"
        assert par.extra.executor == executor
        assert par.result.eigenvalues.shape == (len(batch), 5)
        assert par.result.sweeps == one.result.sweeps <= 20
        assert_bitwise(one.result, par.result)

    def test_single_worker_ignores_executor_option(self, batch, starts):
        rep = repro.solve(batch, starts=starts, alpha=4.0, max_iters=100,
                          workers=1, executor="process")
        assert rep.solver == "fleet_solve"


class TestCrossProcessTracing:
    """Trace propagation through the process tier: each worker records
    into its own recorder, the span tree rides the exit message, and the
    parent stitches one tree under ``parallel_fleet_solve``."""

    def test_process_trace_stitches_every_worker(self, batch, starts):
        from repro.instrument import recording

        with recording() as rec:
            rep = parallel_fleet_solve(batch, starts=starts, alpha=4.0,
                                       max_iters=200, workers=2,
                                       executor="process")
        assert rep.workers_traced == rep.workers == 2
        root = rec.find("parallel_fleet_solve")
        assert root is not None
        subtrees = {name: c for name, c in root.children.items()
                    if name.startswith("worker")}
        assert set(subtrees) == {"worker0", "worker1"}
        # every worker contributes at least one real span (plan_warm is
        # recorded even by a worker that wins no shards)
        for sub in subtrees.values():
            assert len(sub.children) >= 1

    def test_untraced_run_reports_zero_workers_traced(self, batch, starts):
        rep = parallel_fleet_solve(batch, starts=starts, alpha=4.0,
                                   max_iters=100, workers=2,
                                   executor="process")
        assert rep.workers_traced == 0

    def test_thread_tier_also_counts_traced_workers(self, batch, starts):
        from repro.instrument import recording

        with recording() as rec:
            rep = parallel_fleet_solve(batch, starts=starts, alpha=4.0,
                                       max_iters=100, workers=2,
                                       executor="thread")
        assert rep.workers_traced == 2
        assert rec.find("parallel_fleet_solve/worker0") is not None
        assert rec.find("parallel_fleet_solve/worker1") is not None

    def test_corrupt_span_payload_warns_once_and_skips(self):
        from repro.instrument import Recorder
        from repro.parallel.fleet import _stitch_worker_traces

        donor = Recorder()
        with donor.activate(), donor.span("work"):
            pass
        parent = Recorder()
        traces = {0: donor.to_dict(), 1: {"schema": "bogus"}, 2: None,
                  3: {"schema": "bogus"}}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stitched = _stitch_worker_traces(parent, traces, stacklevel=2)
        assert stitched == 1
        assert parent.find("worker0/work") is not None
        # one warning total, however many workers sent garbage
        runtime = [w for w in caught
                   if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert "discarding" in str(runtime[0].message)
