"""Newton refinement of tensor eigenpairs.

SS-HOPM converges linearly (rate analysis in :mod:`repro.core.theory`);
once an iterate is near an eigenpair, Newton's method on the square system

    F(x, lambda) = [ A x^{m-1} - lambda x ;  (x.x - 1) / 2 ] = 0

converges quadratically.  The Jacobian assembles from quantities the
library already has: ``dF/dx = (m-1) A x^{m-2} - lambda I`` (the plan's
batched Hessian kernel :meth:`~repro.kernels.plan.KernelPlan.ax_m2`) and
``dF/dlambda = -x``.

Typical use: run multistart SS-HOPM with a loose tolerance (cheap sweeps),
then polish the deduplicated pairs to machine precision in 3-5 Newton
steps — the standard two-phase strategy for eigenproblems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.eigenpairs import Eigenpair
from repro.kernels.plan import get_plan
from repro.symtensor.storage import SymmetricTensor

__all__ = ["NewtonResult", "newton_refine", "refine_pairs"]


@dataclass
class NewtonResult:
    """Outcome of Newton polishing.

    Attributes
    ----------
    eigenvalue, eigenvector : the refined pair (``x`` unit norm).
    converged : residual fell below ``tol``.
    iterations : Newton steps taken.
    residual : final ``||A x^{m-1} - lambda x||``.
    residual_history : residual per step (quadratic decay when it works).
    """

    eigenvalue: float
    eigenvector: np.ndarray
    converged: bool
    iterations: int
    residual: float
    residual_history: list[float]


def newton_refine(
    tensor: SymmetricTensor,
    lam: float,
    x: np.ndarray,
    tol: float = 1e-13,
    max_iter: int = 25,
    max_step: float = 0.5,
) -> NewtonResult:
    """Polish an approximate eigenpair with Newton's method.

    Steps larger than ``max_step`` (in the combined ``(x, lambda)`` norm)
    are truncated — a light safeguard so a bad initial guess diverges
    gracefully instead of jumping across the sphere.
    """
    x = np.asarray(x, dtype=np.float64).copy()
    norm = np.linalg.norm(x)
    if norm == 0:
        raise ValueError("initial eigenvector guess must be nonzero")
    x /= norm
    lam = float(lam)
    n = tensor.n
    plan = get_plan(tensor.m, n)
    values = np.asarray(tensor.values, dtype=np.float64)

    # F's top block at the current (x, lambda) is also its residual
    defect = plan.ax_m1(values, x) - lam * x
    history = [float(np.linalg.norm(defect))]
    converged = history[-1] < tol
    iterations = 0
    for _ in range(max_iter):
        if converged:
            break
        iterations += 1
        F = np.empty(n + 1)
        F[:n] = defect
        F[n] = 0.5 * (x @ x - 1.0)
        J = np.zeros((n + 1, n + 1))
        J[:n, :n] = plan.ax_m2(values, x) - lam * np.eye(n)
        J[:n, n] = -x
        J[n, :n] = x
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            break
        step_norm = float(np.linalg.norm(step))
        if step_norm > max_step:
            step *= max_step / step_norm
        x = x + step[:n]
        lam = lam + float(step[n])
        nrm = np.linalg.norm(x)
        if nrm == 0 or not np.isfinite(nrm):
            break
        x /= nrm
        defect = plan.ax_m1(values, x) - lam * x
        history.append(float(np.linalg.norm(defect)))
        converged = history[-1] < tol
        if not np.isfinite(history[-1]):
            break

    return NewtonResult(
        eigenvalue=lam,
        eigenvector=x,
        converged=converged,
        iterations=iterations,
        residual=history[-1],
        residual_history=history,
    )


def refine_pairs(
    tensor: SymmetricTensor,
    pairs: list[Eigenpair],
    tol: float = 1e-13,
    max_iter: int = 25,
) -> list[Eigenpair]:
    """Polish a list of (deduplicated) eigenpairs in place-order; pairs
    whose refinement diverges keep their original values."""
    out: list[Eigenpair] = []
    for p in pairs:
        res = newton_refine(tensor, p.eigenvalue, p.eigenvector,
                            tol=tol, max_iter=max_iter)
        if res.converged and res.residual <= p.residual:
            out.append(
                Eigenpair(
                    eigenvalue=res.eigenvalue,
                    eigenvector=res.eigenvector,
                    occurrences=p.occurrences,
                    residual=res.residual,
                    stability=p.stability,
                )
            )
        else:
            out.append(p)
    return out
