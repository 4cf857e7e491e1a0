"""Shared per-iteration scaffolding for the single-tensor solvers.

Every solver in :mod:`repro.solvers` does the same bookkeeping around its
mathematical core: resolve options through the
:class:`~repro.core.config.SolveConfig` chain, wire kernels into the
active recorder, open a telemetry stream, arm the numerical guard, and —
on both success and structured failure — attach telemetry and account
the run in the metrics registry.  :func:`prepare` and :func:`finish` /
:func:`record_failure` centralize that so a new solver (GEAP, QRST, or a
third-party registry entry) is mostly its iteration loop.

The shifted power iteration itself (Figure 1) lives here once, as
:meth:`SolverScaffold.iterate`: ``sshopm``, ``adaptive_sshopm`` and
``geap`` differ only in the shift each step applies, so each passes its
shift policy and sign rule and the loop does the rest.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.config import SolveConfig, resolve_option
from repro.instrument import current_recorder, instrumented_pair
from repro.instrument import span as _span
from repro.instrument.metrics import observe_solver_run
from repro.instrument.telemetry import ConvergenceTelemetry, telemetry_enabled
from repro.kernels.dispatch import KernelPair, get_kernels
from repro.resilience.guards import IterationGuard, SolveFailure, resolve_guards
from repro.symtensor.storage import SymmetricTensor
from repro.util.flopcount import FlopCounter, null_counter
from repro.util.rng import random_unit_vector

__all__ = ["SolverScaffold", "prepare", "start_vector"]


@dataclass
class SolverScaffold:
    """Resolved per-run state shared by the single-tensor solver drivers."""

    solver: str
    tensor: SymmetricTensor
    tol: float
    max_iters: int
    kernels: KernelPair
    rng: object
    recorder: object
    telemetry: ConvergenceTelemetry | None
    guard: IterationGuard | None
    counter: FlopCounter
    t0: float

    def finish(self, *, iterations: int, converged: bool, lam: float,
               residual: float, shift: float | None = None) -> None:
        """Close out a completed run: final telemetry record, hand the
        stream to the recorder, and account the run in the metrics plane."""
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

    def record_failure(self, failure) -> None:
        """Attach the telemetry stream to a structured
        :class:`~repro.resilience.guards.SolveFailure` and account the
        (failed) run; the caller re-raises."""
        failure.telemetry = self.telemetry
        if self.telemetry is not None and self.recorder is not None:
            self.recorder.add_telemetry(self.telemetry)
        observe_solver_run(self.solver, time.perf_counter() - self.t0,
                           failure.iteration, 0, 1)

    def iterate(self, x: np.ndarray, shift, *, negate: bool = False,
                stop=None):
        """Run the shifted power iteration from the unit vector ``x``::

            x_{k+1} = normalize( +-(A x_k^{m-1} + alpha_k x_k) ),
            lambda_{k+1} = A x_{k+1}^m,

        until ``|lambda_{k+1} - lambda_k| < tol`` or ``max_iters`` steps.

        ``shift`` is either a fixed ``alpha`` or a policy
        ``shift(x_k, k) -> alpha_k`` called at the top of step ``k``
        (inside its ``iteration`` span); ``negate`` flips every update
        (the concave case).  ``stop`` is polled before each step; when
        truthy the run ends unconverged with its current state.  A zero
        or nonfinite update ends the run unconverged at the current
        iterate (or raises through the guard when one is armed).

        The run is accounted here (:meth:`finish`, or
        :meth:`record_failure` before a :class:`SolveFailure`
        propagates).  Returns ``(lam, x, iterations, converged, residual,
        history, last_shift)``; ``last_shift`` is the shift of the last
        step taken (``0.0`` for a policy that took none).
        """
        tensor, kernels, guard, tel = (
            self.tensor, self.kernels, self.guard, self.telemetry)
        policy = shift if callable(shift) else None
        alpha = 0.0 if policy is not None else float(shift)
        update_flops = 4 * tensor.n + 1  # axpy (2n) and the norm (2n + 1)
        try:
            with _span(self.solver):
                lam = float(kernels.ax_m(tensor, x))
                history = [lam]
                if guard is not None:
                    guard.note_start(lam, x)
                converged = False
                iterations = 0
                for _ in range(self.max_iters):
                    if stop is not None and stop():
                        break
                    with _span("iteration"):
                        iterations += 1
                        if policy is not None:
                            alpha = policy(x, iterations)
                        y = np.asarray(kernels.ax_m1(tensor, x))
                        x_new = y + alpha * x
                        if negate:
                            x_new = -x_new
                        norm = np.linalg.norm(x_new)
                        self.counter.add_flops(update_flops)
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
                        if abs(lam_new - lam) < self.tol:
                            lam = lam_new
                            converged = True
                            break
                        lam = lam_new

                residual = float(np.linalg.norm(
                    np.asarray(kernels.ax_m1(tensor, x)) - lam * x))
        except SolveFailure as failure:
            self.record_failure(failure)
            raise
        self.finish(iterations=iterations, converged=converged, lam=lam,
                    residual=residual, shift=alpha)
        return lam, x, iterations, converged, residual, history, alpha


def prepare(
    solver: str,
    tensor: SymmetricTensor,
    *,
    tol: float | None,
    max_iters: int | None,
    kernels: KernelPair | str | None,
    rng,
    config: SolveConfig | None,
    telemetry: bool | None,
    guards,
    tel_meta: dict | None = None,
    tol_default: float = 1e-12,
    max_iters_default: int = 500,
    counter=None,
) -> SolverScaffold:
    """Resolve the shared options and wire up recorder/telemetry/guards.

    ``counter`` receives the run's flop charges; with a recorder active
    it is mirrored by a recorder counter that also charges the kernels,
    so trace totals and counter totals agree."""
    tol = resolve_option("tol", tol, config, tol_default)
    max_iters = resolve_option("max_iters", max_iters, config, max_iters_default)
    kernels = resolve_option("kernels", kernels, config, None)
    rng = resolve_option("rng", rng, config, None)
    guard_cfg = resolve_guards(resolve_option("guards", guards, config, None))

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
        meta = {"m": tensor.m, "n": tensor.n, "tol": tol}
        meta.update(tel_meta or {})
        tel = ConvergenceTelemetry(solver, meta=meta)
    guard = None
    if guard_cfg is not None:
        guard = IterationGuard(guard_cfg, solver=solver, tol=tol)
    return SolverScaffold(
        solver=solver, tensor=tensor, tol=tol, max_iters=max_iters,
        kernels=kernels, rng=rng, recorder=recorder, telemetry=tel,
        guard=guard, counter=counter, t0=time.perf_counter(),
    )


def start_vector(x0, n: int, rng) -> np.ndarray:
    """Validate/normalize an explicit start, or draw a random unit one."""
    if x0 is None:
        x0 = random_unit_vector(n, rng=rng)
    x = np.asarray(x0, dtype=np.float64)
    if x.shape != (n,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({n},)")
    norm = np.linalg.norm(x)
    if norm == 0:
        raise ValueError("starting vector must be nonzero")
    return x / norm
