"""GEAP — the generalized eigenproblem adaptive power method.

Kolda & Mayo's adaptive-shift method (the line of work behind
arXiv:1007.1267), here with the shift chosen from the **projected**
Hessian each iteration.  The convexity condition that makes an SS-HOPM
step an ascent only involves the Hessian restricted to the tangent space
of the unit sphere at the iterate, so with ``C(x) = (m-1) A x^{m-2}``
and ``P = I - x x^T`` the smallest sufficient shift is

    alpha_k = max(0, tau - lambda_min(P C(x_k) P |_tangent))    (maxima)
    alpha_k = min(0, -(tau + lambda_max(P C(x_k) P |_tangent))) (minima)

The tangent-restricted eigenvalues interlace the full-space ones, so
this shift is never larger than the full-Hessian rule used by
:func:`~repro.solvers.adaptive.adaptive_sshopm` — smaller shifts mean a
larger effective step and faster convergence, while the monotonicity of
``lambda_k`` (nondecreasing for ``mode="max"``, nonincreasing for
``"min"``) is preserved.  ``mode="min"`` is the concave case: it reaches
the local *minima* of ``f(x) = A x^m`` that no convex (``alpha >= 0``)
SS-HOPM run converges to.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import SolveConfig, reconcile_max_iters
from repro.core.eigenpairs import hessian_matrix, tangent_eigenvalues
from repro.instrument import span as _span
from repro.kernels.dispatch import KernelPair
from repro.solvers.scaffold import prepare, start_vector
from repro.solvers.sshopm import SSHOPMResult
from repro.symtensor.storage import SymmetricTensor, SymmetricTensorBatch

__all__ = ["geap", "projected_shift", "tangent_hessian_eigenvalues"]


def tangent_hessian_eigenvalues(
    tensor: SymmetricTensor | SymmetricTensorBatch, x: np.ndarray
) -> np.ndarray:
    """Ascending eigenvalues of ``C(x) = (m-1) A x^{m-2}`` restricted to
    the tangent space of the unit sphere at ``x``.

    ``tensor`` is a :class:`SymmetricTensor`, or a
    :class:`~repro.symtensor.storage.SymmetricTensorBatch` with one tensor
    per row of a stacked ``x (L, n)``; stacked iterates give ``(L, n-1)``
    from one Hessian kernel call and one stacked ``eigvalsh``.  The
    ``n = 1`` sphere has an empty tangent space (``n - 1 = 0``
    eigenvalues: any shift works).
    """
    x = np.asarray(x, dtype=np.float64)
    return tangent_eigenvalues(hessian_matrix(tensor, x), x)


def projected_shift(tensor: SymmetricTensor | SymmetricTensorBatch,
                    x: np.ndarray, tau: float,
                    mode: str = "max") -> float | np.ndarray:
    """The GEAP shift at iterate ``x`` (see the module docstring).

    A single iterate ``x (n,)`` gives a float.  Stacked iterates
    ``x (L, n)`` — against one shared tensor or a per-lane
    :class:`~repro.symtensor.storage.SymmetricTensorBatch` — give an
    ``(L,)`` array.  A lane whose Hessian is not finite gets NaN.
    """
    evals = tangent_hessian_eigenvalues(tensor, x)
    if evals.shape[-1] == 0:
        alpha = np.zeros(evals.shape[:-1])
    elif mode == "max":
        alpha = np.maximum(0.0, tau - evals[..., 0])
    else:
        alpha = np.minimum(0.0, -(tau + evals[..., -1]))
    return float(alpha) if np.ndim(x) == 1 else alpha


def geap(
    tensor: SymmetricTensor,
    x0: np.ndarray | None = None,
    tau: float = 1e-6,
    mode: str = "max",
    tol: float | None = None,
    max_iters: int | None = None,
    kernels: KernelPair | str | None = None,
    rng=None,
    config: SolveConfig | None = None,
    *,
    telemetry: bool | None = None,
    guards=None,
    stop=None,
    max_iter: int | None = None,
) -> SSHOPMResult:
    """Run GEAP (projected-Hessian adaptive shift) from one start.

    Parameters
    ----------
    tensor : symmetric tensor whose eigenpair is sought.
    tau : convexity margin enforced on the shifted tangent Hessian.
    mode : ``"max"`` seeks local maxima of ``f(x) = A x^m`` (convex
        shifts ``>= 0``), ``"min"`` local minima (concave shifts
        ``<= 0`` — eigenpairs SS-HOPM's convex iteration cannot reach).
    stop : optional zero-argument callable polled once per iteration;
        when truthy the run returns immediately with its current state
        (``converged=False``) — the cancellation hook ``deadline=`` and
        the serve drain ride on.
    Other parameters as in :func:`repro.solvers.sshopm.sshopm`
    (``tol`` default ``1e-12``, ``max_iters`` default 500; ``guards``
    raises a structured :class:`~repro.resilience.guards.SolveFailure`;
    ``max_iter=`` is the deprecated spelling).

    Returns an :class:`~repro.solvers.sshopm.SSHOPMResult`;
    ``lambda_history`` is monotone (up to floating-point noise) in the
    requested direction.
    """
    if mode not in ("max", "min"):
        raise ValueError(f"mode must be 'max' or 'min', got {mode!r}")
    max_iters = reconcile_max_iters(max_iters, max_iter)
    run = prepare(
        "geap", tensor, tol=tol, max_iters=max_iters, kernels=kernels,
        rng=rng, config=config, telemetry=telemetry, guards=guards,
        tel_meta={"mode": mode, "tau": tau},
    )
    x = start_vector(x0, tensor.n, run.rng)

    def shift(x, k):
        with _span("projected_shift"):
            alpha = projected_shift(tensor, x, tau, mode)
            if run.guard is not None and not np.isfinite(alpha):
                # a NaN Hessian means the iterate went nonfinite
                run.guard.check(k, float("nan"), x)
        return alpha

    lam, x, iterations, converged, residual, history, _ = run.iterate(
        x, shift, negate=mode == "min", stop=stop)
    return SSHOPMResult(lam, x, converged, iterations, residual, history,
                        run.telemetry)
