"""Fault-tolerant per-start multistart sweeps with checkpoint/resume.

The batched solver (:func:`~repro.core.multistart.multistart_sshopm`,
on the fleet engine) is the fast path; this module is the *durable* path for long sweeps: it
runs each starting vector as an independent task so that

* a start that trips a numerical guard is retried with an escalated
  shift and a fresh vector (:mod:`repro.resilience.retry`);
* a start whose worker task crashes is requeued on a surviving worker,
  up to a bounded budget, with a degraded-mode warning;
* an unrecoverable start is *reported* (``failed_starts``) instead of
  poisoning the sweep;
* completed starts are periodically checkpointed
  (:mod:`repro.resilience.checkpoint`) and a resumed sweep reproduces
  the uninterrupted one bit-for-bit.

Determinism across worker counts and resume points comes from deriving
every random draw from ``SeedSequence`` spawn keys
(:func:`repro.util.rng.spawn_rng`): attempt ``a`` of start ``i`` always
sees the stream ``spawn_rng(seed, i, a)``, no matter which thread runs
it or how many siblings ran first.
"""

from __future__ import annotations

import warnings
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import SolveConfig, resolve_option
from repro.core.eigenpairs import Eigenpair, dedupe_eigenpairs
from repro.solvers.sshopm import sshopm, suggested_shift
from repro.instrument import span as _span
from repro.instrument.log import get_logger
from repro.instrument.metrics import MetricsRegistry, get_registry, use_registry
from repro.kernels.dispatch import KernelPair, get_kernels
from repro.resilience.checkpoint import (
    check_resumable,
    new_checkpoint,
    read_checkpoint,
    tensor_fingerprint,
    write_checkpoint,
)
from repro.resilience.faults import FaultPlan
from repro.resilience.guards import GuardConfig, SolveFailure, resolve_guards
from repro.resilience.retry import RetryPolicy, escalate_shift, run_with_retry
from repro.symtensor.storage import SymmetricTensor
from repro.util.rng import random_unit_vector, spawn_rng

__all__ = ["ResilientSweepResult", "StartReport", "resilient_multistart"]

_log = get_logger("resilience.runner")

# spawn-key namespace for the retry-backoff jitter stream, disjoint from
# the attempt-index keys (which are < RetryPolicy.max_attempts)
_JITTER_KEY = 1 << 20


@dataclass
class StartReport:
    """Outcome of one starting vector, successful or not."""

    index: int
    eigenvalue: float
    eigenvector: np.ndarray
    converged: bool
    iterations: int
    residual: float
    attempts: int
    alpha: float
    requeues: int = 0
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_doc(self) -> dict:
        """JSON-able checkpoint record (floats round-trip exactly)."""
        return {
            "eigenvalue": float(self.eigenvalue),
            "eigenvector": [float(v) for v in np.asarray(self.eigenvector)],
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "residual": float(self.residual),
            "attempts": int(self.attempts),
            "alpha": float(self.alpha),
            "requeues": int(self.requeues),
            "error": self.error,
        }

    @classmethod
    def from_doc(cls, index: int, doc: dict) -> "StartReport":
        return cls(
            index=index,
            eigenvalue=float(doc["eigenvalue"]),
            eigenvector=np.asarray(doc["eigenvector"], dtype=np.float64),
            converged=bool(doc["converged"]),
            iterations=int(doc["iterations"]),
            residual=float(doc["residual"]),
            attempts=int(doc["attempts"]),
            alpha=float(doc["alpha"]),
            requeues=int(doc.get("requeues", 0)),
            error=doc.get("error"),
        )


@dataclass
class ResilientSweepResult:
    """A completed (possibly partially failed) resilient sweep."""

    tensor: SymmetricTensor
    num_starts: int
    reports: list[StartReport] = field(default_factory=list)
    resumed: int = 0
    requeues: int = 0
    checkpoint_path: str | None = None

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([r.eigenvalue for r in self.reports])

    @property
    def eigenvectors(self) -> np.ndarray:
        return np.stack([np.asarray(r.eigenvector) for r in self.reports])

    @property
    def converged(self) -> np.ndarray:
        return np.array([r.converged for r in self.reports])

    @property
    def failed_starts(self) -> list[int]:
        return [r.index for r in self.reports if not r.ok]

    @property
    def retried_starts(self) -> list[int]:
        return [r.index for r in self.reports if r.attempts > 1]

    @property
    def total_attempts(self) -> int:
        return sum(max(r.attempts, 1) for r in self.reports)

    def eigenpairs(self, lambda_tol: float = 1e-6, angle_tol: float = 1e-4,
                   classify: bool = True) -> list[Eigenpair]:
        """The recoverable spectrum: converged starts deduplicated into
        distinct eigenpairs (failed starts contribute nothing)."""
        keep = self.converged & np.array([r.ok for r in self.reports])
        return dedupe_eigenpairs(
            self.eigenvalues, self.eigenvectors, self.tensor.m,
            tensor=self.tensor, lambda_tol=lambda_tol, angle_tol=angle_tol,
            classify=classify, converged_mask=keep,
        )

    def summary(self) -> str:
        """Human-readable sweep health report (printed by the CLI)."""
        failed = self.failed_starts
        lines = [
            f"starts: {self.num_starts}  converged: {int(self.converged.sum())}"
            f"  failed: {len(failed)}  retried: {len(self.retried_starts)}"
            f"  requeued tasks: {self.requeues}  resumed from checkpoint: "
            f"{self.resumed}",
        ]
        if failed:
            reasons = {}
            for r in self.reports:
                if not r.ok:
                    reasons.setdefault(r.error, []).append(r.index)
            for reason, indices in sorted(reasons.items()):
                shown = ", ".join(str(i) for i in indices[:8])
                more = "" if len(indices) <= 8 else f", … ({len(indices)} total)"
                lines.append(f"  failed [{reason}]: starts {shown}{more}")
        return "\n".join(lines)


def _crash_report(start: int, n: int, exc: BaseException,
                  requeues: int) -> StartReport:
    return StartReport(
        index=start,
        eigenvalue=float("nan"),
        eigenvector=np.zeros(n),
        converged=False,
        iterations=0,
        residual=float("nan"),
        attempts=0,
        alpha=float("nan"),
        requeues=requeues,
        error=f"crash: {type(exc).__name__}: {exc}",
    )


def resilient_multistart(
    tensor: SymmetricTensor,
    num_starts: int | None = None,
    alpha: float | None = None,
    tol: float | None = None,
    max_iters: int | None = None,
    seed: int = 0,
    workers: int = 1,
    kernels: KernelPair | str | None = None,
    retry: RetryPolicy | None = None,
    guards: GuardConfig | bool | None = True,
    checkpoint: str | None = None,
    checkpoint_every: int = 8,
    resume: bool = False,
    max_requeues: int = 2,
    faults: FaultPlan | None = None,
    config: SolveConfig | None = None,
    checkpoint_source: dict | None = None,
) -> ResilientSweepResult:
    """Run ``num_starts`` independent SS-HOPM starts, surviving partial
    failure.

    Parameters
    ----------
    tensor : the symmetric tensor to sweep.
    num_starts : starting vectors (default 64).
    alpha, tol, max_iters : per-start SS-HOPM options (defaults 0.0 /
        1e-12 / 500; ``config`` supplies any not passed).
    seed : root seed; every attempt's randomness is
        ``spawn_rng(seed, start, attempt)``, making results independent
        of ``workers`` and of resume points.
    workers : worker threads running starts concurrently.
    retry : per-start :class:`~repro.resilience.retry.RetryPolicy`
        (default: 3 attempts, shift escalation, no sleeping).
    guards : numerical guards for each attempt (default on — this is the
        resilient driver).
    checkpoint : path for periodic ``repro-ckpt/1`` checkpoints
        (``None`` disables checkpointing).
    checkpoint_every : write after this many newly completed starts.
    resume : load ``checkpoint`` first and skip its completed starts;
        the checkpoint must match this sweep's tensor and parameters.
    max_requeues : how many times a crashed worker task is rescheduled
        before the start is reported as failed.
    faults : optional :class:`~repro.resilience.faults.FaultPlan` (chaos
        testing only).
    checkpoint_source : free-form metadata stored in the checkpoint so
        ``repro solve --resume`` can rebuild the tensor.

    Returns a :class:`ResilientSweepResult`; it never raises for
    individual start failures (see ``failed_starts`` / ``summary()``),
    only for misuse (bad arguments, unresumable checkpoint).
    """
    num_starts = resolve_option("num_starts", num_starts, config, 64)
    alpha = resolve_option("alpha", alpha, config, 0.0)
    tol = resolve_option("tol", tol, config, 1e-12)
    max_iters = resolve_option("max_iters", max_iters, config, 500)
    kernels = resolve_option("kernels", kernels, config, None)
    retry = resolve_option("retry", retry, config, None) or RetryPolicy()
    guard_cfg = resolve_guards(resolve_option("guards", guards, config, True))
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if num_starts < 1:
        raise ValueError(f"num_starts must be >= 1, got {num_starts}")
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    if resume and checkpoint is None:
        raise ValueError("resume=True requires a checkpoint path")

    m, n = tensor.m, tensor.n
    if isinstance(kernels, str) or kernels is None:
        pair = get_kernels(kernels or "precomputed", m, n)
    else:
        pair = kernels
    safe_shift = suggested_shift(tensor)
    fingerprint = tensor_fingerprint(tensor)

    completed: dict[int, StartReport] = {}
    state = new_checkpoint(
        fingerprint=fingerprint, num_starts=num_starts, seed=seed,
        alpha=alpha, tol=tol, max_iters=max_iters, source=checkpoint_source,
    )
    resumed = 0
    if resume:
        state = read_checkpoint(checkpoint)
        check_resumable(state, fingerprint=fingerprint, num_starts=num_starts,
                        seed=seed, alpha=alpha, tol=tol, max_iters=max_iters)
        for key, doc in state["starts"].items():
            index = int(key)
            if 0 <= index < num_starts:
                completed[index] = StartReport.from_doc(index, doc)
        resumed = len(completed)

    def run_start(start: int) -> tuple[StartReport, MetricsRegistry]:
        # per-task registry: no cross-thread lock traffic; merged below.
        # InjectedWorkerCrash (and any unexpected bug) escapes to the
        # requeue logic in the collector loop.
        reg = MetricsRegistry()
        with use_registry(reg):
            if faults is not None:
                faults.on_task_start(start)
            tensor_i = faults.tensor_for(start, tensor) if faults is not None else tensor

            def attempt(a: int):
                x0_key = a if retry.fresh_start else 0
                x0 = random_unit_vector(n, rng=spawn_rng(seed, start, x0_key))
                alpha_a = escalate_shift(alpha, a, safe_shift)
                # SS-HOPM's convergence rate degrades ~linearly in |alpha|
                # (the paper's shift-vs-speed tradeoff), so an escalated
                # retry gets a proportionally larger iteration budget
                iters_a = max_iters if a == 0 else int(
                    max_iters * retry.shift_growth ** (a - 1) * 2)
                pair_a = pair
                if faults is not None:
                    pair_a = faults.wrap_kernels(start, a, pair)
                res = sshopm(
                    tensor_i, x0=x0, alpha=alpha_a, tol=tol,
                    max_iters=iters_a, kernels=pair_a, guards=guard_cfg,
                    telemetry=False,
                )
                return res, alpha_a

            try:
                outcome = run_with_retry(
                    attempt, retry, solver="sshopm",
                    rng=spawn_rng(seed, start, _JITTER_KEY),
                )
            except SolveFailure as failure:
                reg.counter(
                    "repro_starts_failed_total",
                    "Sweep starts whose retry budget was exhausted",
                ).inc()
                report = StartReport(
                    index=start,
                    eigenvalue=failure.last_lambda,
                    eigenvector=(failure.last_iterate
                                 if failure.last_iterate is not None
                                 else np.zeros(n)),
                    converged=False,
                    iterations=failure.iteration,
                    residual=float("nan"),
                    attempts=getattr(failure, "attempts", 1),
                    alpha=alpha,
                    error=failure.reason,
                )
            else:
                res, alpha_used = outcome.result
                if outcome.attempts > 1:
                    reg.counter(
                        "repro_starts_recovered_total",
                        "Sweep starts that succeeded only after retries",
                    ).inc()
                report = StartReport(
                    index=start,
                    eigenvalue=res.eigenvalue,
                    eigenvector=res.eigenvector,
                    converged=res.converged,
                    iterations=res.iterations,
                    residual=res.residual,
                    attempts=outcome.attempts,
                    alpha=alpha_used,
                )
        return report, reg

    pending = [s for s in range(num_starts) if s not in completed]
    caller_reg = get_registry()
    requeue_counts: dict[int, int] = {}
    total_requeues = 0
    warned_degraded = False
    since_save = 0

    def record(report: StartReport, reg: MetricsRegistry | None) -> None:
        nonlocal since_save
        completed[report.index] = report
        state["starts"][str(report.index)] = report.to_doc()
        if reg is not None:
            caller_reg.merge(reg)
        since_save += 1
        if checkpoint is not None and since_save >= checkpoint_every:
            write_checkpoint(checkpoint, state)
            since_save = 0

    with _span("resilient_multistart"):
        if pending:
            with ThreadPoolExecutor(max_workers=min(workers, len(pending))) as pool:
                futures = {pool.submit(run_start, s): s for s in pending}
                while futures:
                    done, _ = wait(futures, return_when=FIRST_COMPLETED)
                    for fut in done:
                        start = futures.pop(fut)
                        try:
                            report, reg = fut.result()
                        except BaseException as exc:
                            count = requeue_counts.get(start, 0) + 1
                            requeue_counts[start] = count
                            if not warned_degraded:
                                warned_degraded = True
                                warnings.warn(
                                    f"sweep task for start {start} crashed "
                                    f"({type(exc).__name__}: {exc}); requeueing "
                                    f"— running in degraded mode",
                                    RuntimeWarning,
                                    stacklevel=2,
                                )
                            _log.warning(
                                "sweep task crashed",
                                fields={
                                    "start": start, "attempt": count,
                                    "error": f"{type(exc).__name__}: {exc}",
                                })
                            if count <= max_requeues:
                                total_requeues += 1
                                caller_reg.counter(
                                    "repro_requeues_total",
                                    "Crashed sweep tasks rescheduled on a "
                                    "surviving worker",
                                ).inc()
                                futures[pool.submit(run_start, start)] = start
                                continue
                            caller_reg.counter(
                                "repro_starts_failed_total",
                                "Sweep starts whose retry budget was exhausted",
                            ).inc()
                            report, reg = _crash_report(start, n, exc,
                                                        count - 1), None
                        if report.requeues == 0:
                            report.requeues = requeue_counts.get(start, 0)
                        record(report, reg)
        if checkpoint is not None and (since_save > 0 or not pending):
            write_checkpoint(checkpoint, state)

    reports = [completed[s] for s in sorted(completed)]
    result = ResilientSweepResult(
        tensor=tensor,
        num_starts=num_starts,
        reports=reports,
        resumed=resumed,
        requeues=total_requeues,
        checkpoint_path=checkpoint,
    )
    caller_reg.gauge(
        "repro_sweep_failed_starts",
        "Failed starts in the most recent resilient sweep",
    ).set(len(result.failed_starts))
    return result
