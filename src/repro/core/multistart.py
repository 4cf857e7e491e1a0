"""Batched multistart SS-HOPM — the computation the paper maps to the GPU.

The full problem (Section V): for every tensor in a batch, run SS-HOPM from
``V`` starting vectors.  On the GPU this is one thread per (tensor, vector)
pair.  Here :func:`multistart_sshopm` is a thin adapter over the fleet
engine (:func:`repro.engine.fleet.fleet_solve`): each pair is one lane,
a lane retires the sweep it converges or dies, and the working set is
compacted so kernel work tracks the live lanes.  One ``A x^{m-1}`` kernel
call per sweep drives both the update and ``lambda = x . A x^{m-1}``.
Stopping lanes independently is safe because each start's SS-HOPM
sequence is independent of the others.

On the GPU a converged thread still occupies its warp until the warp's
slowest thread finishes.  That SIMT lockstep cost is modelled separately,
from the per-lane ``result.iterations``, in :mod:`repro.gpu.warps`.

Every thread block shares the same starting-vector set, exactly as in the
paper ("every thread block can use the same set of starting vectors").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import SolveConfig, reconcile_max_iters, resolve_option
from repro.core.results import warn_renamed_field
from repro.instrument import gauge as _gauge
from repro.instrument import span as _span
from repro.instrument.metrics import observe_solver_run
from repro.instrument.telemetry import ConvergenceTelemetry
from repro.kernels.dispatch import get_kernels
from repro.kernels.plan import KernelPlan
from repro.resilience.guards import SolveFailure, record_solve_failure, resolve_guards
from repro.symtensor.storage import SymmetricTensor, SymmetricTensorBatch
from repro.util.flopcount import FlopCounter
from repro.util.rng import fibonacci_sphere, random_unit_vectors

__all__ = ["MultistartResult", "multistart_sshopm", "starting_vectors"]


@dataclass
class MultistartResult:
    """Results of batched multistart SS-HOPM.

    Shapes below use ``T`` = number of tensors, ``V`` = starting vectors per
    tensor, ``n`` = mode dimension.

    Attributes
    ----------
    eigenvalues : ``(T, V)`` final ``lambda`` per (tensor, start).
    eigenvectors : ``(T, V, n)`` final unit vectors.
    converged : ``(T, V)`` bool.
    iterations : ``(T, V)`` iterations until each pair retired.
    sweeps : iteration sweeps executed (max over pairs);
        ``total_sweeps`` is the deprecated pre-1.2 spelling.
    telemetry : per-sweep aggregate convergence stream
        (:class:`~repro.instrument.telemetry.ConvergenceTelemetry`; mean
        lambda / max residual / mean step over the still-active pairs)
        when telemetry was enabled for the run, else ``None``.
    failed : ``(T, V)`` bool — lanes that *numerically died* (update
        collapsed to zero or went NaN/Inf) as opposed to merely running
        out of iterations; ``None`` for results loaded from files written
        before this field existed.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    sweeps: int
    telemetry: ConvergenceTelemetry | None = None
    failed: np.ndarray | None = None

    @property
    def num_tensors(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def num_starts(self) -> int:
        return self.eigenvalues.shape[1]

    @property
    def total_sweeps(self) -> int:
        """Deprecated alias of :attr:`sweeps` (pre-1.2 spelling)."""
        warn_renamed_field("total_sweeps", "sweeps")
        return self.sweeps

    def eigenpairs(
        self,
        tensors: SymmetricTensorBatch | SymmetricTensor,
        lambda_tol: float = 1e-5,
        angle_tol: float = 1e-2,
        classify: bool = False,
    ) -> list[list]:
        """Per-tensor deduplicated eigenpairs from the converged lanes.

        ``tensors`` must be the batch (or single tensor) the result was
        computed from; it supplies ``m`` for sign canonicalization and,
        with ``classify=True``, the residual/stability classification.
        Returns one list of :class:`~repro.core.eigenpairs.Eigenpair`
        per tensor.
        """
        from repro.core.eigenpairs import dedupe_eigenpairs

        if isinstance(tensors, SymmetricTensor):
            tensors = SymmetricTensorBatch(
                tensors.values[None, :], tensors.m, tensors.n
            )
        if len(tensors) != self.num_tensors:
            raise ValueError(
                f"batch has {len(tensors)} tensors but result has "
                f"{self.num_tensors}"
            )
        keep = self.converged
        if self.failed is not None:
            keep = keep & ~self.failed
        return [
            dedupe_eigenpairs(
                self.eigenvalues[t],
                self.eigenvectors[t],
                tensors.m,
                tensor=tensors[t] if classify else None,
                lambda_tol=lambda_tol,
                angle_tol=angle_tol,
                classify=classify,
                converged_mask=keep[t],
            )
            for t in range(self.num_tensors)
        ]


def starting_vectors(
    count: int,
    n: int,
    scheme: str = "random",
    rng=None,
    dtype=np.float64,
) -> np.ndarray:
    """Generate the shared ``(count, n)`` starting-vector set.

    ``scheme="random"`` draws uniform entries in ``[-1, 1]`` and normalizes
    (the paper's choice); ``scheme="fibonacci"`` returns the deterministic
    evenly-spaced alternative the paper mentions (``n == 3`` only).
    """
    if scheme == "random":
        return random_unit_vectors(count, n, rng=rng, dtype=dtype)
    if scheme == "fibonacci":
        if n != 3:
            raise ValueError("fibonacci scheme is defined on the 2-sphere (n=3)")
        return fibonacci_sphere(count, dtype=dtype)
    raise ValueError(f"unknown starting-vector scheme {scheme!r}")


def multistart_sshopm(
    tensors: SymmetricTensorBatch | SymmetricTensor,
    num_starts: int | None = None,
    alpha: float | None = None,
    tol: float | None = None,
    max_iters: int | None = None,
    starts: np.ndarray | None = None,
    scheme: str | None = None,
    backend: str | None = None,
    dtype=None,
    rng=None,
    counter: FlopCounter | None = None,
    config: SolveConfig | None = None,
    *,
    telemetry: bool | None = None,
    guards=None,
    stop=None,
    max_iter: int | None = None,
) -> MultistartResult:
    """Run SS-HOPM for every (tensor, starting vector) pair on the fleet
    engine, retiring each pair as soon as it converges or dies.

    Parameters
    ----------
    tensors : a batch (or single tensor, treated as a batch of one).
    num_starts : ``V`` (default 128); ignored when ``starts`` is given
        explicitly.
    alpha : shift, as in :func:`repro.solvers.sshopm.sshopm` (default 0).
    tol : per-pair convergence threshold on ``|delta lambda|``
        (default ``1e-10``).
    max_iters : sweep cap per pair (default 500; ``max_iter=`` is the
        deprecated spelling).
    starts : optional explicit ``(V, n)`` start set shared by all tensors.
    scheme : start generation scheme when ``starts`` is None
        (default ``"random"``).
    backend : batched kernel variant, resolved through
        ``get_kernels(backend, m, n, batched=True)``: ``"batched"`` /
        ``"vectorized"`` (table-driven vectorized kernels),
        ``"batched_unrolled"`` / ``"unrolled"`` (the Section V-D
        code-generated kernels broadcast over the batch), or ``"blocked"``
        (the Section VI blocked decomposition — fastest for larger ``n``).
        Results are identical; they differ in speed, mirroring the paper's
        general-vs-unrolled comparison.
    dtype : compute precision; the paper uses single precision
        (``np.float32``) on the GPU, float64 by default here.
    counter : optional flop counter, charged per live lane: each sweep
        charges the kernel and the ``x . y`` dot for the lanes still
        iterating, not for retired ones.  When a recorder is active the
        same charges also land on the trace.
    config : a :class:`~repro.core.config.SolveConfig` supplying defaults
        for any option not passed explicitly.
    telemetry : record a per-sweep aggregate convergence stream on the
        result.  ``None`` (the default) enables it exactly when a recorder
        is active.
    guards : ``True`` or a :class:`~repro.resilience.guards.GuardConfig`
        raises a structured :class:`~repro.resilience.guards.SolveFailure`
        when *every* lane dies numerically (total collapse — nothing
        recoverable).  Individual dead lanes are always tolerated, retired,
        and reported via the result's ``failed`` mask.
    stop : optional zero-argument callable polled once per sweep; when
        truthy the still-active pairs retire unconverged with their
        current iterates (the engine's cancellation hook, which
        ``repro.solve(deadline=...)`` rides on).

    Notes
    -----
    Converged pairs retire with the iterate they converged at, so later
    sweeps cannot drift them off the fixed point.  A pair whose update
    collapses to the zero vector (possible with alpha=0) retires
    unconverged with its last finite iterate and is flagged in
    ``result.failed`` (its ``iterations`` counts the sweep it died in); the
    dead-lane count lands on the ``repro_multistart_dead_lanes_total``
    metric.
    """
    max_iters = reconcile_max_iters(max_iters, max_iter)
    num_starts = resolve_option("num_starts", num_starts, config, 128)
    alpha = resolve_option("alpha", alpha, config, 0.0)
    tol = resolve_option("tol", tol, config, 1e-10)
    max_iters = resolve_option("max_iters", max_iters, config, 500)
    scheme = resolve_option("scheme", scheme, config, "random")
    backend = resolve_option("backend", backend, config, "batched")
    dtype = resolve_option("dtype", dtype, config, np.float64)
    rng = resolve_option("rng", rng, config, None)
    guards = resolve_guards(resolve_option("guards", guards, config, None))

    from repro.engine.fleet import _run_fleet  # the engine imports this module

    if isinstance(tensors, SymmetricTensor):
        tensors = SymmetricTensorBatch(tensors.values[None, :], tensors.m, tensors.n)
    m, n = tensors.m, tensors.n
    T = len(tensors)
    suite = get_kernels(backend, m, n, batched=True)
    plan = KernelPlan(m=m, n=n, variant=suite.name, tables=None, suite=suite,
                      build_seconds=0.0)

    with _span("multistart_sshopm"):
        # guards=False: total collapse is judged (and raised) below under
        # this solver's name; per-lane deaths are retired either way
        res, seconds = _run_fleet(
            tensors, num_starts, alpha, tol, max_iters, starts, scheme,
            dtype=dtype, rng=rng, counter=counter, plan=plan,
            telemetry=telemetry, guards=False, stop=stop)
    V = res.eigenvalues.shape[1]
    _gauge("multistart.tensors", T)
    _gauge("multistart.starts", V)
    _gauge("multistart.backend", suite.name)
    _gauge("multistart.shape", [m, n])

    tel = res.telemetry
    if tel is not None:
        # the fleet already attached this stream to the active recorder;
        # relabel it in place so traces keep the multistart stream
        tel.name = "multistart_sshopm"
        tel.meta = {"tensors": T, "starts": V, "alpha": alpha,
                    "backend": suite.name, "shape": [m, n]}
    observe_solver_run("multistart_sshopm", seconds, res.iterations,
                       int(res.converged.sum()), T * V)
    dead_lanes = int(res.failed.sum())
    if dead_lanes:
        from repro.instrument.metrics import get_registry

        get_registry().counter(
            "repro_multistart_dead_lanes_total",
            "(tensor, start) lanes that died numerically mid-sweep",
        ).inc(dead_lanes)
    if guards is not None and guards.check_finite and dead_lanes == T * V:
        record_solve_failure("multistart_sshopm", "collapse")
        raise SolveFailure(
            "collapse",
            f"multistart_sshopm: all {T * V} lanes died numerically "
            f"(alpha={alpha})",
            solver="multistart_sshopm",
            iteration=res.sweeps,
            telemetry=tel,
            details={"tensors": T, "starts": V},
        )
    return MultistartResult(
        eigenvalues=res.eigenvalues.astype(dtype, copy=False),
        eigenvectors=res.eigenvectors,
        converged=res.converged,
        iterations=res.iterations,
        sweeps=res.sweeps,
        telemetry=tel,
        failed=res.failed,
    )
