"""Fault-injection (chaos) suite — the resilience layer's acceptance gate.

Run via ``make chaos`` (tier-1 includes it).  Every fault is scheduled
deterministically by :class:`~repro.resilience.faults.FaultPlan` under a
pinned seed (``REPRO_CHAOS_SEED``, default 20110516), so a failure here
reproduces exactly.

The headline scenario: a 64-start sweep with injected NaN kernels, a
killed worker, and one corrupted start must still return every
recoverable eigenpair, report the failed start, and — interrupted and
resumed from its checkpoint — match the uninterrupted run bit-for-bit.
"""

import json
import os
import pathlib
import warnings

import numpy as np
import pytest

from repro.core.eigenpairs import dedupe_eigenpairs
from repro.parallel.fleet import parallel_fleet_solve
from repro.parallel.shm import SHM_AVAILABLE
from repro.resilience import (
    FaultPlan,
    InjectedWorkerCrash,
    RetryPolicy,
    resilient_multistart,
)
from repro.symtensor.random import random_symmetric_batch, random_symmetric_tensor

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "20110516"))
ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture
def tensor():
    return random_symmetric_tensor(4, 3, rng=np.random.default_rng(CHAOS_SEED))


def _pair_set(result):
    """Comparable (eigenvalue, |first eigenvector component|) signature."""
    return sorted(round(p.eigenvalue, 9) for p in result.eigenpairs())


def test_acceptance_64_starts_survive_chaos(tensor):
    """The ISSUE acceptance scenario, end to end."""
    plan = FaultPlan(
        seed=CHAOS_SEED,
        nan_kernel={3: (0,), 17: (0,), 41: (0, 1)},  # recoverable via retry
        crashes={9: 1},                               # recoverable via requeue
        corrupt={25: 4},                              # unrecoverable input fault
    )
    clean = resilient_multistart(tensor, num_starts=64, alpha=2.0,
                                 seed=CHAOS_SEED, workers=4)
    assert not clean.failed_starts

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        chaotic = resilient_multistart(
            tensor, num_starts=64, alpha=2.0, seed=CHAOS_SEED, workers=4,
            retry=RetryPolicy(max_attempts=3), faults=plan,
        )

    # the one corrupted start is reported failed, nothing else is
    assert chaotic.failed_starts == [25]
    report_25 = next(r for r in chaotic.reports if r.index == 25)
    assert report_25.error == "nonfinite"
    assert "failed [nonfinite]: starts 25" in chaotic.summary()

    # the killed worker's start was requeued and recovered
    report_9 = next(r for r in chaotic.reports if r.index == 9)
    assert report_9.requeues == 1 and report_9.ok
    assert chaotic.requeues == 1

    # NaN-kernel starts recovered on retry with an escalated shift
    for idx in (3, 17, 41):
        rep = next(r for r in chaotic.reports if r.index == idx)
        assert rep.attempts > 1 and rep.converged, idx
        assert abs(rep.alpha) > 2.0  # escalated beyond the requested shift

    # all recoverable eigenpairs still found: same distinct spectrum as
    # the clean run (the corrupted start only loses one vote, not a pair)
    assert _pair_set(chaotic) == _pair_set(clean)


def test_acceptance_interrupt_resume_bit_for_bit(tensor, tmp_path):
    ck = tmp_path / "sweep.ckpt.json"
    full = resilient_multistart(tensor, num_starts=64, alpha=2.0,
                                seed=CHAOS_SEED, workers=4)

    # simulate an interruption: checkpoint a complete run, then drop every
    # start past the first 20 from the saved state
    resilient_multistart(tensor, num_starts=64, alpha=2.0, seed=CHAOS_SEED,
                         workers=4, checkpoint=str(ck), checkpoint_every=16)
    state = json.loads(ck.read_text())
    state["starts"] = {k: v for k, v in state["starts"].items() if int(k) < 20}
    ck.write_text(json.dumps(state))

    resumed = resilient_multistart(tensor, num_starts=64, alpha=2.0,
                                   seed=CHAOS_SEED, workers=4,
                                   checkpoint=str(ck), resume=True)
    assert resumed.resumed == 20
    assert len(resumed.reports) == 64
    for a, b in zip(full.reports, resumed.reports):
        assert a.index == b.index
        assert a.eigenvalue == b.eigenvalue  # bit-for-bit, not approx
        np.testing.assert_array_equal(a.eigenvector, b.eigenvector)
        assert a.converged == b.converged and a.iterations == b.iterations
    assert _pair_set(resumed) == _pair_set(full)


def test_eigenpair_set_invariant_under_worker_count(tensor):
    """The RNG satellite: spawn-key streams make workers=1 and workers=8
    produce identical per-start results, hence identical eigenpair sets."""
    one = resilient_multistart(tensor, num_starts=32, alpha=2.0,
                               seed=CHAOS_SEED, workers=1)
    eight = resilient_multistart(tensor, num_starts=32, alpha=2.0,
                                 seed=CHAOS_SEED, workers=8)
    for a, b in zip(one.reports, eight.reports):
        assert a.eigenvalue == b.eigenvalue
        np.testing.assert_array_equal(a.eigenvector, b.eigenvector)
    assert _pair_set(one) == _pair_set(eight)


def test_resume_rejects_mismatched_run(tensor, tmp_path):
    ck = tmp_path / "ck.json"
    resilient_multistart(tensor, num_starts=8, alpha=2.0, seed=CHAOS_SEED,
                         checkpoint=str(ck))
    with pytest.raises(ValueError):
        resilient_multistart(tensor, num_starts=8, alpha=9.0, seed=CHAOS_SEED,
                             checkpoint=str(ck), resume=True)
    other = random_symmetric_tensor(4, 3, rng=np.random.default_rng(1))
    with pytest.raises(ValueError):
        resilient_multistart(other, num_starts=8, alpha=2.0, seed=CHAOS_SEED,
                             checkpoint=str(ck), resume=True)


def test_requeue_budget_exhaustion_reports_start(tensor):
    plan = FaultPlan(seed=CHAOS_SEED, crashes={5: 99})  # always crashes
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = resilient_multistart(tensor, num_starts=8, alpha=2.0,
                                   seed=CHAOS_SEED, workers=2, faults=plan,
                                   max_requeues=2)
    assert any("degraded" in str(w.message) for w in caught)
    assert res.failed_starts == [5]
    rep = next(r for r in res.reports if r.index == 5)
    assert rep.error.startswith("crash: InjectedWorkerCrash")
    assert res.requeues == 2
    # the other 7 starts are untouched
    assert sum(r.converged for r in res.reports) == 7


def test_slow_task_fault_executes(tensor):
    plan = FaultPlan(seed=CHAOS_SEED, slow={0: 0.01})
    res = resilient_multistart(tensor, num_starts=2, alpha=2.0,
                               seed=CHAOS_SEED, faults=plan)
    assert not res.failed_starts


TIERS = pytest.mark.parametrize("executor", [
    "thread",
    pytest.param("process", marks=pytest.mark.skipif(
        not SHM_AVAILABLE, reason="shared_memory unavailable")),
])


@TIERS
def test_executor_chunk_crash_requeues_and_recovers(executor):
    batch = random_symmetric_batch(6, 4, 3,
                                   rng=np.random.default_rng(CHAOS_SEED))
    base = parallel_fleet_solve(batch, workers=3, num_starts=8, alpha=2.0,
                                rng=np.random.default_rng(1),
                                executor=executor)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = parallel_fleet_solve(batch, workers=3, num_starts=8,
                                   alpha=2.0, rng=np.random.default_rng(1),
                                   executor=executor, faults={1: "crash"})
    assert any("degraded" in str(w.message) for w in caught)
    assert rep.requeues == 1 and not rep.failed_shards
    np.testing.assert_array_equal(rep.result.eigenvalues,
                                  base.result.eigenvalues)


@TIERS
def test_executor_exhausted_chunk_becomes_placeholder(executor):
    batch = random_symmetric_batch(6, 4, 3,
                                   rng=np.random.default_rng(CHAOS_SEED))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = parallel_fleet_solve(batch, workers=3, num_starts=8,
                                   alpha=2.0, rng=np.random.default_rng(1),
                                   executor=executor, faults={0: "kill"},
                                   max_requeues=0)
    assert any("budget exhausted" in str(w.message) for w in caught)
    assert rep.failed_shards == [0] and rep.requeues == 0
    lo, hi = 0, rep.shard_sizes[0]
    assert np.isnan(rep.result.eigenvalues[lo:hi]).all()
    assert rep.result.failed[lo:hi].all()
    # the surviving chunks' results are intact and usable
    assert np.isfinite(rep.result.eigenvalues[hi:]).all()
    pairs = dedupe_eigenpairs(rep.result.eigenvalues[hi:].ravel(),
                              rep.result.eigenvectors[hi:].reshape(-1, 3),
                              batch.m,
                              converged_mask=rep.result.converged[hi:].ravel())
    assert pairs


def test_injected_crash_is_distinguishable():
    exc = InjectedWorkerCrash("boom")
    assert isinstance(exc, RuntimeError)


class TestProcessFleetChaos:
    """Process-tier crash discipline: killed or crashing workers must
    requeue their shard (same merged result) and never leak a
    ``/dev/shm`` segment."""

    @pytest.fixture
    def fleet_batch(self):
        return random_symmetric_batch(6, 4, 3,
                                      rng=np.random.default_rng(CHAOS_SEED))

    @pytest.fixture
    def fleet_starts(self):
        from repro.core.multistart import starting_vectors

        return starting_vectors(6, 3, rng=CHAOS_SEED)

    def _solve(self, batch, starts, **kw):
        from repro.parallel.fleet import parallel_fleet_solve

        return parallel_fleet_solve(batch, starts=starts, alpha=2.0,
                                    max_iters=200, **kw)

    def test_sigkilled_worker_requeues_no_leak(self, fleet_batch,
                                               fleet_starts):
        from repro.parallel.shm import SHM_AVAILABLE, active_segments

        if not SHM_AVAILABLE:
            pytest.skip("shared_memory unavailable")
        base = self._solve(fleet_batch, fleet_starts, workers=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = self._solve(fleet_batch, fleet_starts, workers=2,
                              executor="process", faults={0: "kill"})
        assert any("degraded" in str(w.message) for w in caught)
        assert rep.requeues >= 1 and rep.failed_shards == []
        np.testing.assert_array_equal(rep.result.eigenvalues,
                                      base.result.eigenvalues)
        np.testing.assert_array_equal(rep.result.converged,
                                      base.result.converged)
        assert active_segments() == []

    def test_injected_crash_requeues_no_leak(self, fleet_batch,
                                             fleet_starts):
        from repro.parallel.shm import SHM_AVAILABLE, active_segments

        if not SHM_AVAILABLE:
            pytest.skip("shared_memory unavailable")
        base = self._solve(fleet_batch, fleet_starts, workers=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = self._solve(fleet_batch, fleet_starts, workers=2,
                              executor="process", faults={1: "crash"})
        assert any("degraded" in str(w.message) for w in caught)
        assert rep.requeues >= 1
        np.testing.assert_array_equal(rep.result.eigenvalues,
                                      base.result.eigenvalues)
        assert active_segments() == []

    def test_total_pool_loss_finishes_inline(self, fleet_batch,
                                             fleet_starts):
        """Every worker dies: the parent drains the queue and solves the
        remaining shards itself — degraded, but complete and leak-free."""
        from repro.parallel.shm import SHM_AVAILABLE, active_segments

        if not SHM_AVAILABLE:
            pytest.skip("shared_memory unavailable")
        base = self._solve(fleet_batch, fleet_starts, workers=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rep = self._solve(fleet_batch, fleet_starts, workers=2,
                              executor="process",
                              faults={0: "kill", 1: "kill"})
        assert rep.failed_shards == []
        np.testing.assert_array_equal(rep.result.eigenvalues,
                                      base.result.eigenvalues)
        assert active_segments() == []

    def test_sigint_mid_solve_leaves_no_segments(self, tmp_path):
        """Ctrl-C during a process-tier solve must still unlink every
        shared-memory segment (the ``finally`` dispose discipline)."""
        import signal as _signal
        import subprocess
        import sys
        import time as _time

        from repro.parallel.shm import SHM_AVAILABLE, active_segments

        if not SHM_AVAILABLE:
            pytest.skip("shared_memory unavailable")
        assert active_segments() == []
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from repro.symtensor.random import random_symmetric_batch\n"
            "from repro.parallel.fleet import parallel_fleet_solve\n"
            "batch = random_symmetric_batch(32, 4, 6, rng=0)\n"
            "print('READY', flush=True)\n"
            "parallel_fleet_solve(batch, workers=2, num_starts=32, rng=1,\n"
            "                     alpha=6.0, tol=0.0, max_iters=2000,\n"
            "                     executor='process')\n"
            "print('FINISHED', flush=True)\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            cwd=str(ROOT),
        )
        try:
            assert proc.stdout.readline().strip() == "READY"
            _time.sleep(1.0)  # let publish + worker spawn happen
            proc.send_signal(_signal.SIGINT)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        # interrupted (no FINISHED) or finished early — either way, clean
        assert active_segments() == []


class TestServeDrainChaos:
    """SIGTERM against a live ``repro serve`` running a *process-tier*
    fleet: the daemon must drain gracefully (exit 0), checkpoint the
    interrupted job into a ``repro-drain/1`` manifest, and leave no
    ``/dev/shm`` segment behind."""

    def test_sigterm_drains_checkpoints_no_shm_leak(self, tmp_path):
        import json as _json
        import signal as _signal
        import subprocess
        import sys
        import time as _time
        import urllib.request

        from repro.parallel.shm import SHM_AVAILABLE, active_segments
        from repro.serve.drain import read_drain_manifest

        if not SHM_AVAILABLE:
            pytest.skip("shared_memory unavailable")
        ckpt = tmp_path / "ckpt"
        spec = {"tensors": {"kind": "random", "count": 12, "m": 4, "n": 8,
                            "seed": CHAOS_SEED % 1000},
                "num_starts": 12, "seed": 7, "max_iters": 2000,
                "tol": 1e-14, "chunk": 2, "executor": "process",
                "workers": 2}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--runners", "1", "--checkpoint-dir", str(ckpt)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            cwd=str(tmp_path),
        )
        try:
            ready = _json.loads(proc.stdout.readline())
            assert ready["event"] == "ready"
            base = f"http://{ready['host']}:{ready['port']}"
            req = urllib.request.Request(
                base + "/solve", data=_json.dumps(spec).encode(),
                method="POST",
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(req, timeout=30) as resp:
                assert resp.status == 202
                job = _json.load(resp)["job"]
            deadline = _time.time() + 15
            while _time.time() < deadline:
                with urllib.request.urlopen(f"{base}/jobs/{job}",
                                            timeout=10) as resp:
                    if _json.load(resp)["status"] == "running":
                        break
                _time.sleep(0.02)
            _time.sleep(0.6)  # let the process fleet get mid-flight
            proc.send_signal(_signal.SIGTERM)
            out, _ = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        drained = _json.loads(out.strip().splitlines()[-1])
        assert drained["event"] == "drained" and drained["status"] == 0
        entries = read_drain_manifest(ckpt)
        assert entries and entries[0]["state"] == "interrupted"
        assert entries[0]["job"] == job
        # the interrupted job checkpointed its completed chunks
        ck = _json.loads((ckpt / f"job-{job}.json").read_text())
        assert ck["schema"].startswith("repro-ckpt/") and ck["starts"]
        assert active_segments() == []


class TestObservabilityUnderChaos:
    """The observability plane must survive the faults the fleet
    survives: a SIGKILL'd worker leaves a parseable (truncation-safe)
    events file, and the stitched trace still contains every surviving
    worker's subtree."""

    @pytest.fixture
    def fleet_batch(self):
        return random_symmetric_batch(6, 4, 3,
                                      rng=np.random.default_rng(CHAOS_SEED))

    @pytest.fixture
    def fleet_starts(self):
        from repro.core.multistart import starting_vectors

        return starting_vectors(6, 3, rng=CHAOS_SEED)

    def test_killed_worker_leaves_parseable_events(self, fleet_batch,
                                                   fleet_starts, tmp_path):
        from repro.instrument.events import read_events, validate_event
        from repro.parallel.fleet import parallel_fleet_solve
        from repro.parallel.shm import SHM_AVAILABLE

        if not SHM_AVAILABLE:
            pytest.skip("shared_memory unavailable")
        ev = tmp_path / "chaos_events.jsonl"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rep = parallel_fleet_solve(
                fleet_batch, starts=fleet_starts, alpha=2.0, max_iters=200,
                workers=2, executor="process", faults={0: "kill"},
                events=str(ev))
        assert rep.requeues >= 1 and rep.failed_shards == []
        records = read_events(ev)
        for rec in records:
            validate_event(rec)
        evs = {r["ev"] for r in records}
        # lifecycle events survive the kill: the run completed, the lost
        # shard was requeued, and every record shares one run id
        assert {"header", "run_start", "requeue", "run_finish"} <= evs
        assert len({r["run"] for r in records}) == 1
        # a SIGKILL mid-write can leave a truncated final line; the
        # reader must skip it — simulate the worst case explicitly
        with open(ev, "a") as fh:
            fh.write('{"ev":"shard_start","t":1.0,"run":"xyz","src"')
        truncated = read_events(ev)
        assert len(truncated) == len(records)
        with pytest.raises(ValueError):
            read_events(ev, strict=True)

    def test_killed_worker_trace_keeps_survivors(self, fleet_batch,
                                                 fleet_starts):
        from repro.instrument import recording
        from repro.parallel.fleet import parallel_fleet_solve
        from repro.parallel.shm import SHM_AVAILABLE

        if not SHM_AVAILABLE:
            pytest.skip("shared_memory unavailable")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with recording() as rec:
                rep = parallel_fleet_solve(
                    fleet_batch, starts=fleet_starts, alpha=2.0,
                    max_iters=200, workers=2, executor="process",
                    faults={0: "kill"})
        # the killed worker's recorder dies with it; every surviving
        # worker's subtree must still be stitched in
        assert 1 <= rep.workers_traced <= rep.workers
        root = rec.find("parallel_fleet_solve")
        assert root is not None
        survivors = [name for name in root.children
                     if name.startswith("worker")]
        assert len(survivors) == rep.workers_traced >= 1
