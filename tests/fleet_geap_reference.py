"""The retired per-lane GEAP shift loop of the fleet engine, kept as a test
oracle.

Before the Hessian kernel was plan-backed, ``fleet_solve(adaptive="geap")``
recomputed each live lane's projected-Hessian shift one lane at a time:
the interpreted ``ttsv_compressed`` Hessian, an SVD for the tangent basis
and one ``eigvalsh`` per lane per sweep.  The equivalence tests pin the
fleet's stacked shift against this loop.

Instrumentation (spans, telemetry, metrics, events, guards), ``stop=`` and
``out=`` are left out; the sweep arithmetic, the retirement rules, the
compaction schedule and the result fields are the original's.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.compressed import ttsv_compressed
from repro.kernels.plan import get_plan
from repro.symtensor.storage import SymmetricTensor, SymmetricTensorBatch


def ref_projected_shift(tensor: SymmetricTensor, x: np.ndarray,
                        tau: float) -> float:
    """The per-lane ``mode="max"`` GEAP shift as the retired loop computed
    it: interpreted Hessian, SVD tangent basis, one ``eigvalsh``."""
    x = np.asarray(x, dtype=np.float64)
    if tensor.n == 1:
        return 0.0
    if tensor.m == 2:
        H = tensor.to_dense()
    else:
        H = (tensor.m - 1) * ttsv_compressed(tensor, x, 2).to_dense()
    u, _, _ = np.linalg.svd(x.reshape(-1, 1), full_matrices=True)
    tangent = u[:, 1:]
    restricted = tangent.T @ H @ tangent
    evals = np.linalg.eigvalsh(0.5 * (restricted + restricted.T))
    if not np.all(np.isfinite(evals)):
        return float("nan")
    return max(0.0, tau - float(evals[0]))


def ref_fleet_geap(tensors: SymmetricTensorBatch, starts: np.ndarray,
                   tol: float = 1e-10, max_iters: int = 500,
                   tau: float = 1e-6, compact_every: int = 8) -> dict:
    """``fleet_solve(tensors, starts=starts, adaptive="geap")`` with the
    per-lane shift loop.  Returns the ``(T, V)`` result arrays and the
    sweep count as a dict keyed like :class:`~repro.core.results.FleetResult`.
    """
    m, n = tensors.m, tensors.n
    T = len(tensors)
    starts = np.asarray(starts, dtype=np.float64)
    starts = starts / np.linalg.norm(starts, axis=1, keepdims=True)
    V = starts.shape[0]
    L = T * V
    plan = get_plan(m, n)
    tensor_objs = [tensors[t] for t in range(T)]

    values = np.asarray(tensors.values, dtype=np.float64)
    idx = np.arange(L)
    tensor_of = idx // V
    x = np.tile(starts, (T, 1))
    alpha_lane = np.zeros(L)
    lane_vals = values[tensor_of]
    y = plan.ax_m1(lane_vals, x)
    lam = np.einsum("ij,ij->i", x, y, dtype=np.float64)
    live = np.ones(L, dtype=bool)

    out_lam = np.full(L, np.nan)
    out_x = np.full((L, n), np.nan)
    out_conv = np.zeros(L, dtype=bool)
    out_iters = np.zeros(L, dtype=np.int64)
    out_failed = np.zeros(L, dtype=bool)
    out_alpha = np.zeros(L)
    sweeps = 0

    def write_back(sel, converged, failed):
        gids = idx[sel]
        out_lam[gids] = lam[sel]
        out_x[gids] = x[sel]
        out_conv[gids] = converged
        out_failed[gids] = failed
        out_iters[gids] = sweeps
        out_alpha[gids] = alpha_lane[sel]

    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for _ in range(max_iters):
            if not live.any():
                break
            sweeps += 1
            for i in np.flatnonzero(live):
                a = ref_projected_shift(tensor_objs[tensor_of[i]], x[i], tau)
                if np.isfinite(a):
                    alpha_lane[i] = a
            x_new = y + alpha_lane[:, None] * x  # GEAP "max" shifts are >= 0
            norms = np.linalg.norm(x_new, axis=-1)
            dead = live & ((norms == 0) | ~np.isfinite(norms))
            if dead.any():
                write_back(dead, converged=False, failed=True)
            safe = np.where(norms > 0, norms, 1.0)
            x = x_new / safe[:, None]
            y = plan.ax_m1(lane_vals, x)
            lam_prev = lam
            lam = np.einsum("ij,ij->i", x, y, dtype=np.float64)
            bad_lam = live & ~dead & ~np.isfinite(lam)
            if bad_lam.any():
                gids = idx[bad_lam]
                out_lam[gids] = lam_prev[bad_lam]
                out_x[gids] = x[bad_lam]
                out_failed[gids] = True
                out_iters[gids] = sweeps
                out_alpha[gids] = alpha_lane[bad_lam]
                dead = dead | bad_lam
            just_conv = live & ~dead & (np.abs(lam - lam_prev) < tol)
            if just_conv.any():
                write_back(just_conv, converged=True, failed=False)
            live &= ~(just_conv | dead)
            if sweeps % compact_every == 0 and not live.all():
                idx = idx[live]
                tensor_of = tensor_of[live]
                x, y, lam = x[live], y[live], lam[live]
                alpha_lane = alpha_lane[live]
                lane_vals = values[tensor_of]
                live = np.ones(idx.shape[0], dtype=bool)

        if live.any():
            write_back(live, converged=False, failed=False)
        y_all = plan.ax_m1(values[:, None, :], out_x.reshape(T, V, n))
        residuals = np.linalg.norm(
            y_all.reshape(L, n) - out_lam[:, None] * out_x, axis=-1)
        out_conv &= np.isfinite(residuals)
        out_failed |= ~np.isfinite(out_lam) | ~np.isfinite(residuals)

    return {
        "eigenvalues": out_lam.reshape(T, V),
        "eigenvectors": out_x.reshape(T, V, n),
        "converged": out_conv.reshape(T, V),
        "iterations": out_iters.reshape(T, V),
        "failed": out_failed.reshape(T, V),
        "shifts": out_alpha.reshape(T, V),
        "sweeps": sweeps,
    }
