"""The retired per-solver single-start loops, kept as a test oracle.

Before the shared loop in :mod:`repro.solvers.scaffold`, ``sshopm``,
``adaptive_sshopm`` and ``geap`` each carried their own copy of the
shifted power iteration: ``A x^m`` at the start, ``A x^{m-1}``, shift,
sign flip, norm, guard, normalise, ``A x^m``, history, telemetry, the
``tol`` test and the final residual.  The three bodies below are those
loops as they stood, instrumentation included (spans, telemetry, guards,
flop charges, solver-run metrics), so
``tests/test_singlestart_equivalence.py`` can pin the refactored solvers
against them bit for bit.  ``_ref_prepare`` is the option/recorder
scaffolding ``geap`` used at the time, copied so the oracle does not move
with the code under test.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.config import reconcile_max_iters, resolve_option
from repro.core.eigenpairs import hessian_matrix
from repro.instrument import current_recorder, instrumented_pair
from repro.instrument import span as _span
from repro.instrument.metrics import observe_solver_run
from repro.instrument.telemetry import ConvergenceTelemetry, telemetry_enabled
from repro.kernels.dispatch import get_kernels
from repro.resilience.guards import IterationGuard, SolveFailure, resolve_guards
from repro.solvers.geap import projected_shift
from repro.solvers.sshopm import SSHOPMResult
from repro.util.flopcount import null_counter
from repro.util.rng import random_unit_vector


def ref_sshopm(tensor, x0=None, alpha=None, tol=None, max_iters=None,
               kernels=None, counter=None, rng=None, config=None, *,
               telemetry=None, guards=None, max_iter=None):
    max_iters = reconcile_max_iters(max_iters, max_iter)
    alpha = resolve_option("alpha", alpha, config, 0.0)
    tol = resolve_option("tol", tol, config, 1e-12)
    max_iters = resolve_option("max_iters", max_iters, config, 500)
    kernels = resolve_option("kernels", kernels, config, None)
    rng = resolve_option("rng", rng, config, None)
    guards = resolve_guards(resolve_option("guards", guards, config, None))

    recorder = current_recorder()
    counter = counter or null_counter()
    if recorder is not None:
        counter = recorder.flop_counter(mirror=counter)
    if isinstance(kernels, str) or kernels is None:
        kernels = get_kernels(kernels or "precomputed", tensor.m, tensor.n)
    if recorder is not None:
        kernels = instrumented_pair(kernels, counter=counter)
    tel = None
    if telemetry_enabled(telemetry, recorder):
        tel = ConvergenceTelemetry(
            "sshopm",
            meta={"m": tensor.m, "n": tensor.n, "alpha": alpha, "tol": tol},
        )
    if x0 is None:
        x0 = random_unit_vector(tensor.n, rng=rng)
    x = np.asarray(x0, dtype=np.float64)
    if x.shape != (tensor.n,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({tensor.n},)")
    norm = np.linalg.norm(x)
    if norm == 0:
        raise ValueError("starting vector must be nonzero")
    x = x / norm

    guard = None
    if guards is not None:
        guard = IterationGuard(guards, solver="sshopm", tol=tol)

    t0 = time.perf_counter()
    try:
        with _span("sshopm"):
            lam = float(kernels.ax_m(tensor, x))
            history = [lam]
            if guard is not None:
                guard.note_start(lam, x)
            converged = False
            iterations = 0
            for _ in range(max_iters):
                with _span("iteration"):
                    iterations += 1
                    y = np.asarray(kernels.ax_m1(tensor, x))
                    x_new = y + alpha * x
                    if alpha < 0:
                        x_new = -x_new
                    counter.add_flops(2 * tensor.n)
                    norm = np.linalg.norm(x_new)
                    counter.add_flops(2 * tensor.n + 1)
                    if guard is not None:
                        guard.check_update(iterations, float(norm))
                    if norm == 0.0 or not np.isfinite(norm):
                        break
                    x_prev = x
                    x = x_new / norm
                    lam_new = float(kernels.ax_m(tensor, x))
                    history.append(lam_new)
                    if tel is not None:
                        tel.append(
                            iterations, lam_new,
                            residual=float(np.linalg.norm(y - lam * x_prev)),
                            shift=alpha,
                            step_norm=float(np.linalg.norm(x - x_prev)),
                        )
                    if guard is not None:
                        guard.check(iterations, lam_new, x)
                    if abs(lam_new - lam) < tol:
                        lam = lam_new
                        converged = True
                        break
                    lam = lam_new

            residual = float(np.linalg.norm(np.asarray(kernels.ax_m1(tensor, x)) - lam * x))
    except SolveFailure as failure:
        failure.telemetry = tel
        if tel is not None and recorder is not None:
            recorder.add_telemetry(tel)
        observe_solver_run("sshopm", time.perf_counter() - t0,
                           failure.iteration, 0, 1)
        raise
    if tel is not None:
        tel.append(iterations, lam, residual=residual, shift=alpha,
                   active=0 if converged else 1, force=True)
        if recorder is not None:
            recorder.add_telemetry(tel)
    observe_solver_run("sshopm", time.perf_counter() - t0, iterations,
                       int(converged), 1)
    return SSHOPMResult(
        eigenvalue=lam, eigenvector=x, converged=converged,
        iterations=iterations, residual=residual, lambda_history=history,
        telemetry=tel,
    )


def ref_adaptive_sshopm(tensor, x0=None, tau=1e-6, mode="max", tol=None,
                        max_iters=None, kernels=None, rng=None, config=None,
                        *, telemetry=None, guards=None, max_iter=None):
    if mode not in ("max", "min"):
        raise ValueError(f"mode must be 'max' or 'min', got {mode!r}")
    max_iters = reconcile_max_iters(max_iters, max_iter)
    tol = resolve_option("tol", tol, config, 1e-12)
    max_iters = resolve_option("max_iters", max_iters, config, 500)
    kernels = resolve_option("kernels", kernels, config, None)
    rng = resolve_option("rng", rng, config, None)
    guards = resolve_guards(resolve_option("guards", guards, config, None))

    recorder = current_recorder()
    if isinstance(kernels, str) or kernels is None:
        kernels = get_kernels(kernels or "precomputed", tensor.m, tensor.n)
    if recorder is not None:
        kernels = instrumented_pair(kernels, counter=recorder.flop_counter())
    tel = None
    if telemetry_enabled(telemetry, recorder):
        tel = ConvergenceTelemetry(
            "adaptive_sshopm",
            meta={"m": tensor.m, "n": tensor.n, "mode": mode, "tau": tau,
                  "tol": tol},
        )
    m, n = tensor.m, tensor.n
    if x0 is None:
        x0 = random_unit_vector(n, rng=rng)
    x = np.asarray(x0, dtype=np.float64)
    norm = np.linalg.norm(x)
    if norm == 0:
        raise ValueError("starting vector must be nonzero")
    x = x / norm

    guard = None
    if guards is not None:
        guard = IterationGuard(guards, solver="adaptive_sshopm", tol=tol)

    t0 = time.perf_counter()
    try:
        with _span("adaptive_sshopm"):
            lam = float(kernels.ax_m(tensor, x))
            history = [lam]
            if guard is not None:
                guard.note_start(lam, x)
            converged = False
            iterations = 0
            for _ in range(max_iters):
                with _span("iteration"):
                    iterations += 1
                    with _span("hessian_shift"):
                        H = hessian_matrix(tensor, x)  # (m-1) * A x^{m-2}
                        if guard is not None and not np.all(np.isfinite(H)):
                            guard.check(iterations, float("nan"), x)
                        evals = np.linalg.eigvalsh(0.5 * (H + H.T))
                    y = np.asarray(kernels.ax_m1(tensor, x))
                    if mode == "max":
                        alpha = max(0.0, tau - float(evals[0]))
                        x_new = y + alpha * x
                    else:
                        alpha = min(0.0, -(tau + float(evals[-1])))
                        x_new = -(y + alpha * x)
                    norm = np.linalg.norm(x_new)
                    if guard is not None:
                        guard.check_update(iterations, float(norm))
                    if norm == 0.0 or not np.isfinite(norm):
                        break
                    x_prev = x
                    x = x_new / norm
                    lam_new = float(kernels.ax_m(tensor, x))
                    history.append(lam_new)
                    if tel is not None:
                        tel.append(
                            iterations, lam_new,
                            residual=float(np.linalg.norm(y - lam * x_prev)),
                            shift=alpha,
                            step_norm=float(np.linalg.norm(x - x_prev)),
                        )
                    if guard is not None:
                        guard.check(iterations, lam_new, x)
                    if abs(lam_new - lam) < tol:
                        lam = lam_new
                        converged = True
                        break
                    lam = lam_new

            residual = float(np.linalg.norm(np.asarray(kernels.ax_m1(tensor, x)) - lam * x))
    except SolveFailure as failure:
        failure.telemetry = tel
        if tel is not None and recorder is not None:
            recorder.add_telemetry(tel)
        observe_solver_run("adaptive_sshopm", time.perf_counter() - t0,
                           failure.iteration, 0, 1)
        raise
    if tel is not None:
        tel.append(iterations, lam, residual=residual,
                   active=0 if converged else 1, force=True)
        if recorder is not None:
            recorder.add_telemetry(tel)
    observe_solver_run("adaptive_sshopm", time.perf_counter() - t0,
                       iterations, int(converged), 1)
    return SSHOPMResult(
        eigenvalue=lam, eigenvector=x, converged=converged,
        iterations=iterations, residual=residual, lambda_history=history,
        telemetry=tel,
    )


class _RefRun:
    """The pre-change ``SolverScaffold``: resolved options plus the
    success/failure bookkeeping ``geap`` called."""

    def __init__(self, solver, tol, max_iters, kernels, rng, recorder,
                 telemetry, guard):
        self.solver, self.tol, self.max_iters = solver, tol, max_iters
        self.kernels, self.rng, self.recorder = kernels, rng, recorder
        self.telemetry, self.guard = telemetry, guard
        self.t0 = time.perf_counter()

    def finish(self, *, iterations, converged, lam, residual, shift=None):
        if self.telemetry is not None:
            self.telemetry.append(
                iterations, lam, residual=residual,
                shift=shift if shift is not None else float("nan"),
                active=0 if converged else 1, force=True,
            )
            if self.recorder is not None:
                self.recorder.add_telemetry(self.telemetry)
        observe_solver_run(self.solver, time.perf_counter() - self.t0,
                           iterations, int(converged), 1)

    def record_failure(self, failure):
        failure.telemetry = self.telemetry
        if self.telemetry is not None and self.recorder is not None:
            self.recorder.add_telemetry(self.telemetry)
        observe_solver_run(self.solver, time.perf_counter() - self.t0,
                           failure.iteration, 0, 1)


def _ref_prepare(solver, tensor, *, tol, max_iters, kernels, rng, config,
                 telemetry, guards, tel_meta=None):
    tol = resolve_option("tol", tol, config, 1e-12)
    max_iters = resolve_option("max_iters", max_iters, config, 500)
    kernels = resolve_option("kernels", kernels, config, None)
    rng = resolve_option("rng", rng, config, None)
    guard_cfg = resolve_guards(resolve_option("guards", guards, config, None))

    recorder = current_recorder()
    if isinstance(kernels, str) or kernels is None:
        kernels = get_kernels(kernels or "precomputed", tensor.m, tensor.n)
    if recorder is not None:
        kernels = instrumented_pair(
            kernels, counter=recorder.flop_counter(mirror=None))
    tel = None
    if telemetry_enabled(telemetry, recorder):
        meta = {"m": tensor.m, "n": tensor.n, "tol": tol}
        meta.update(tel_meta or {})
        tel = ConvergenceTelemetry(solver, meta=meta)
    guard = None
    if guard_cfg is not None:
        guard = IterationGuard(guard_cfg, solver=solver, tol=tol)
    return _RefRun(solver, tol, max_iters, kernels, rng, recorder, tel, guard)


def _ref_start_vector(x0, n, rng):
    if x0 is None:
        x0 = random_unit_vector(n, rng=rng)
    x = np.asarray(x0, dtype=np.float64)
    if x.shape != (n,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({n},)")
    norm = np.linalg.norm(x)
    if norm == 0:
        raise ValueError("starting vector must be nonzero")
    return x / norm


def ref_geap(tensor, x0=None, tau=1e-6, mode="max", tol=None, max_iters=None,
             kernels=None, rng=None, config=None, *, telemetry=None,
             guards=None, stop=None, max_iter=None):
    if mode not in ("max", "min"):
        raise ValueError(f"mode must be 'max' or 'min', got {mode!r}")
    max_iters = reconcile_max_iters(max_iters, max_iter)
    run = _ref_prepare(
        "geap", tensor, tol=tol, max_iters=max_iters, kernels=kernels,
        rng=rng, config=config, telemetry=telemetry, guards=guards,
        tel_meta={"mode": mode, "tau": tau},
    )
    kernels, tel, guard = run.kernels, run.telemetry, run.guard
    x = _ref_start_vector(x0, tensor.n, run.rng)

    alpha = 0.0
    try:
        with _span("geap"):
            lam = float(kernels.ax_m(tensor, x))
            history = [lam]
            if guard is not None:
                guard.note_start(lam, x)
            converged = False
            iterations = 0
            for _ in range(run.max_iters):
                if stop is not None and stop():
                    break
                with _span("iteration"):
                    iterations += 1
                    with _span("projected_shift"):
                        alpha = projected_shift(tensor, x, tau, mode)
                        if guard is not None and not np.isfinite(alpha):
                            guard.check(iterations, float("nan"), x)
                    y = np.asarray(kernels.ax_m1(tensor, x))
                    x_new = y + alpha * x
                    if mode == "min":
                        x_new = -x_new
                    norm = np.linalg.norm(x_new)
                    if guard is not None:
                        guard.check_update(iterations, float(norm))
                    if norm == 0.0 or not np.isfinite(norm):
                        break
                    x_prev = x
                    x = x_new / norm
                    lam_new = float(kernels.ax_m(tensor, x))
                    history.append(lam_new)
                    if tel is not None:
                        tel.append(
                            iterations, lam_new,
                            residual=float(np.linalg.norm(y - lam * x_prev)),
                            shift=alpha,
                            step_norm=float(np.linalg.norm(x - x_prev)),
                        )
                    if guard is not None:
                        guard.check(iterations, lam_new, x)
                    if abs(lam_new - lam) < run.tol:
                        lam = lam_new
                        converged = True
                        break
                    lam = lam_new

            residual = float(np.linalg.norm(
                np.asarray(kernels.ax_m1(tensor, x)) - lam * x))
    except SolveFailure as failure:
        run.record_failure(failure)
        raise
    run.finish(iterations=iterations, converged=converged, lam=lam,
               residual=residual, shift=alpha)
    return SSHOPMResult(
        eigenvalue=lam, eigenvector=x, converged=converged,
        iterations=iterations, residual=residual, lambda_history=history,
        telemetry=run.telemetry,
    )
