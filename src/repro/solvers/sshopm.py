"""SS-HOPM — the shifted symmetric higher-order power method (Figure 1).

Kolda & Mayo's generalization of the matrix power method to symmetric
tensor eigenpairs (Definition 3): iterate

    x_{k+1} = normalize( +-(A x_k^{m-1} + alpha x_k) ),
    lambda_{k+1} = A x_{k+1}^m,

with the sign chosen positive for ``alpha >= 0`` (convex case, converges to
attracting eigenpairs that include local *maxima* of ``f(x) = A x^m`` on the
sphere) and negative for ``alpha < 0`` (concave case, local minima).  A
sufficiently large ``|alpha|`` guarantees monotone convergence of the
``lambda_k`` sequence; ``alpha = 0`` recovers the unshifted S-HOPM of
De Lathauwer et al. / Kofidis & Regalia, which the paper uses for its MRI
test set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import SolveConfig, reconcile_max_iters, resolve_option
from repro.instrument.telemetry import ConvergenceTelemetry
from repro.kernels.dispatch import KernelPair
from repro.solvers.scaffold import prepare, start_vector
from repro.symtensor.storage import SymmetricTensor
from repro.util.flopcount import FlopCounter

__all__ = ["SSHOPMResult", "sshopm", "suggested_shift"]


@dataclass
class SSHOPMResult:
    """Outcome of one SS-HOPM run.

    Attributes
    ----------
    eigenvalue : final Rayleigh-like value ``lambda = A x^m``.
    eigenvector : final unit vector ``x``.
    converged : whether ``|lambda_{k+1} - lambda_k| < tol`` was reached.
    iterations : number of iterations performed.
    residual : ``|| A x^{m-1} - lambda x ||_2`` at the final iterate (the
        eigenpair equation defect; small iff (lambda, x) is an eigenpair).
    lambda_history : the full ``lambda_k`` sequence (including the value at
        the starting vector), useful for monotonicity checks.
    telemetry : bounded per-iteration convergence stream
        (:class:`~repro.instrument.telemetry.ConvergenceTelemetry`) when
        telemetry was enabled for the run, else ``None``.
    """

    eigenvalue: float
    eigenvector: np.ndarray
    converged: bool
    iterations: int
    residual: float
    lambda_history: list[float] = field(default_factory=list)
    telemetry: ConvergenceTelemetry | None = None

    def eigenpairs(
        self,
        tensor: SymmetricTensor | None = None,
        lambda_tol: float = 1e-5,
        angle_tol: float = 1e-2,
        classify: bool = False,
    ) -> list:
        """The run's eigenpair as a (zero- or one-element) list, matching
        the :class:`~repro.core.results.ResultProtocol` shape shared with
        the batch solvers.  Unconverged runs yield ``[]``; ``tensor`` is
        needed only for ``classify=True``.
        """
        from repro.core.eigenpairs import dedupe_eigenpairs

        if not self.converged:
            return []
        m = tensor.m if tensor is not None else 0
        return dedupe_eigenpairs(
            np.asarray([self.eigenvalue]),
            self.eigenvector[None, :],
            m,
            tensor=tensor if classify else None,
            lambda_tol=lambda_tol,
            angle_tol=angle_tol,
            classify=classify,
        )


def suggested_shift(tensor: SymmetricTensor) -> float:
    """A shift large enough to guarantee SS-HOPM convergence.

    Kolda & Mayo prove convergence whenever ``alpha > beta(A)`` where
    ``beta(A)`` bounds the largest eigenvalue magnitude of the Hessian of
    ``f(x) = A x^m`` on the unit sphere.  Since the Hessian at unit ``x`` is
    ``m (m-1) A x^{m-2}`` and ``||A x^{m-2}||_2 <= ||A||_F`` for unit ``x``,
    ``alpha = m (m-1) ||A||_F`` is a (conservative) sufficient choice.
    """
    m = tensor.m
    return float(m * (m - 1) * tensor.frobenius_norm())


def sshopm(
    tensor: SymmetricTensor,
    x0: np.ndarray | None = None,
    alpha: float | None = None,
    tol: float | None = None,
    max_iters: int | None = None,
    kernels: KernelPair | str | None = None,
    counter: FlopCounter | None = None,
    rng=None,
    config: SolveConfig | None = None,
    *,
    telemetry: bool | None = None,
    guards=None,
    stop=None,
    max_iter: int | None = None,
) -> SSHOPMResult:
    """Run SS-HOPM (Figure 1) from one starting vector.

    Parameters
    ----------
    tensor : symmetric tensor whose eigenpair is sought.
    x0 : starting vector (normalized internally); random if omitted.
    alpha : shift (default 0). ``>= 0`` seeks attracting pairs of the convex
        shifted function (local maxima for large alpha); ``< 0`` the concave
        case.
    tol : convergence threshold on ``|lambda_{k+1} - lambda_k|``
        (default ``1e-12``).
    max_iters : iteration cap (default 500); exceeding it returns
        ``converged=False``.  ``max_iter=`` is the deprecated spelling.
    kernels : a :class:`KernelPair` or variant name (default
        ``"precomputed"``); lets the benchmarks time the same driver over
        every kernel implementation.
    counter : optional flop counter threaded through the run.  When a
        recorder is active (see :mod:`repro.instrument`) kernel-model flops
        are folded into the same stream, so trace totals and counter totals
        agree.
    config : a :class:`~repro.core.config.SolveConfig` supplying defaults
        for any option not passed explicitly.
    telemetry : record the per-iteration convergence stream
        (``lambda``, residual, shift, step norm) on the result.  ``None``
        (the default) enables it exactly when a recorder is active, so the
        untraced hot path stays free of the extra per-iteration norms.
    guards : ``True`` or a :class:`~repro.resilience.guards.GuardConfig`
        raises a structured :class:`~repro.resilience.guards.SolveFailure`
        (carrying the last-good iterate, lambda history, and telemetry)
        on NaN/Inf, a collapsed update, lambda oscillation, or stalled
        progress, instead of the legacy freeze-and-return-unconverged
        behavior (default: off).
    stop : optional zero-argument callable polled once per iteration;
        when truthy the run returns immediately with its current state
        (``converged=False``) — the hook ``repro.solve(deadline=...)``
        rides on.

    Notes
    -----
    The fixed points for ``alpha >= 0`` satisfy
    ``A x^{m-1} + alpha x = (lambda + alpha) x``, i.e. they are exactly the
    eigenpairs of ``A`` (the shift moves the spectrum, not the eigenvectors).
    A zero iterate ``A x^{m-1} + alpha x = 0`` (possible for small shifts,
    e.g. alpha=0 with x in the kernel of the map) terminates the run
    unconverged at the current iterate.
    """
    max_iters = reconcile_max_iters(max_iters, max_iter)
    alpha = resolve_option("alpha", alpha, config, 0.0)
    run = prepare(
        "sshopm", tensor, tol=tol, max_iters=max_iters, kernels=kernels,
        rng=rng, config=config, telemetry=telemetry, guards=guards,
        tel_meta={"alpha": alpha}, counter=counter,
    )
    x = start_vector(x0, tensor.n, run.rng)
    lam, x, iterations, converged, residual, history, _ = run.iterate(
        x, alpha, negate=alpha < 0, stop=stop)
    return SSHOPMResult(lam, x, converged, iterations, residual, history,
                        run.telemetry)
