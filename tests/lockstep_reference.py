"""The retired lockstep multistart SS-HOPM loop, kept as a test oracle.

Before ``multistart_sshopm`` became an adapter over the fleet engine it
advanced every (tensor, start) pair to the common ``max_iters`` horizon:
two batched kernel calls per sweep (``A x^{m-1}`` for the update, ``A x^m``
for lambda) over all ``T x V`` pairs, with a mask freezing converged and
dead pairs in place.  The equivalence tests pin the adapter against this
loop, and ``benchmarks/bench_fleet_engine.py`` measures its 5x floor
against it, the baseline that floor was defined on.

Instrumentation (spans, gauges, telemetry, metrics) is left out; the
arithmetic, the freeze rules and the result fields are the original's.
"""

from __future__ import annotations

import numpy as np

from repro.core.multistart import MultistartResult, starting_vectors
from repro.kernels.dispatch import get_kernels
from repro.symtensor.storage import SymmetricTensor, SymmetricTensorBatch


def lockstep_multistart(
    tensors: SymmetricTensorBatch | SymmetricTensor,
    num_starts: int = 128,
    alpha: float = 0.0,
    tol: float = 1e-10,
    max_iters: int = 500,
    starts: np.ndarray | None = None,
    scheme: str = "random",
    backend: str = "batched",
    dtype=np.float64,
    rng=None,
    counter=None,
) -> MultistartResult:
    """Run SS-HOPM for every (tensor, start) pair in lockstep."""
    if isinstance(tensors, SymmetricTensor):
        tensors = SymmetricTensorBatch(tensors.values[None, :], tensors.m, tensors.n)
    m, n = tensors.m, tensors.n
    T = len(tensors)
    if starts is None:
        starts = starting_vectors(num_starts, n, scheme=scheme, rng=rng, dtype=dtype)
    else:
        starts = np.asarray(starts, dtype=dtype)
        starts = starts / np.linalg.norm(starts, axis=1, keepdims=True)
    V = starts.shape[0]
    suite = get_kernels(backend, m, n, batched=True)

    values = tensors.values.astype(dtype)[:, None, :]  # (T, 1, U)
    x = np.broadcast_to(starts[None, :, :], (T, V, n)).astype(dtype).copy()
    lam = np.asarray(suite.ax_m(values, x, counter=counter), dtype=dtype)

    active = np.ones((T, V), dtype=bool)
    converged = np.zeros((T, V), dtype=bool)
    iterations = np.zeros((T, V), dtype=np.int64)
    failed = np.zeros((T, V), dtype=bool)
    sweeps = 0
    sign = -1.0 if alpha < 0 else 1.0

    for _ in range(max_iters):
        if not active.any():
            break
        sweeps += 1
        y = np.asarray(suite.ax_m1(values, x, counter=counter))
        x_new = y + alpha * x if alpha != 0.0 else y
        if sign < 0:
            x_new = -x_new
        norms = np.linalg.norm(x_new, axis=-1)
        dead = active & ((norms == 0) | ~np.isfinite(norms))
        failed |= dead
        safe = np.where(norms > 0, norms, 1.0)
        x_next = x_new / safe[..., None]
        # freeze inactive and dead pairs at their current iterate
        upd = active & ~dead
        x[upd] = x_next[upd]
        lam_new = np.asarray(suite.ax_m(values, x, counter=counter), dtype=dtype)
        just_converged = upd & (np.abs(lam_new - lam) < tol)
        lam = np.where(upd, lam_new, lam)
        iterations[upd] += 1
        converged |= just_converged
        active &= ~(just_converged | dead)

    residuals = np.linalg.norm(
        suite.ax_m1(values, x, counter=counter) - lam[..., None] * x, axis=-1)
    converged &= np.isfinite(residuals)
    failed |= ~np.isfinite(lam) | ~np.isfinite(residuals)
    return MultistartResult(
        eigenvalues=lam,
        eigenvectors=x,
        converged=converged,
        iterations=iterations,
        sweeps=sweeps,
        failed=failed,
    )
