"""Tensor eigenpair utilities: residuals, sign canonicalization,
deduplication of multistart results, and stability classification.

SS-HOPM converges to different eigenpairs from different starting vectors
(unlike the matrix power method); a multistart run therefore yields a
multiset of (lambda, x) pairs that must be clustered into distinct
eigenpairs, and — for the MRI application — filtered to the *local maxima*
of ``f(x) = A x^m`` on the sphere, which are the eigenpairs with negative
definite projected Hessian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.symtensor.storage import SymmetricTensor

__all__ = [
    "Eigenpair",
    "eigen_residual",
    "canonicalize_sign",
    "hessian_matrix",
    "projected_hessian_eigenvalues",
    "tangent_basis",
    "tangent_eigenvalues",
    "classify_eigenpair",
    "dedupe_eigenpairs",
]


@dataclass
class Eigenpair:
    """A (deduplicated) real eigenpair of a symmetric tensor.

    Attributes
    ----------
    eigenvalue, eigenvector : the pair ``(lambda, x)``, ``||x|| = 1``.
    occurrences : how many multistart runs converged to this pair (a proxy
        for the size of its basin of attraction).
    residual : ``||A x^{m-1} - lambda x||``.
    stability : ``"pos_stable"`` (local max of f), ``"neg_stable"``
        (local min), ``"unstable"`` (saddle), or ``"degenerate"``
        (projected Hessian singular to tolerance); empty if unclassified.
    """

    eigenvalue: float
    eigenvector: np.ndarray
    occurrences: int = 1
    residual: float = np.nan
    stability: str = ""

    def __repr__(self) -> str:
        vec = np.array2string(self.eigenvector, precision=4, suppress_small=True)
        return (
            f"Eigenpair(lambda={self.eigenvalue:+.4f}, x={vec}, "
            f"occurrences={self.occurrences}, stability={self.stability or '?'})"
        )


def _plan(tensor: SymmetricTensor):
    from repro.kernels.plan import get_plan

    return get_plan(tensor.m, tensor.n)


def eigen_residual(tensor: SymmetricTensor, lam, x: np.ndarray):
    """Eigenpair equation defect ``||A x^{m-1} - lambda x||_2``.

    ``x`` may stack pairs as ``(k, n)`` with ``lam`` of shape ``(k,)``;
    the result is then a ``(k,)`` array from one batched kernel call.
    """
    x = np.asarray(x, dtype=np.float64)
    y = _plan(tensor).ax_m1(np.asarray(tensor.values, dtype=np.float64), x)
    res = np.linalg.norm(y - np.asarray(lam, dtype=np.float64)[..., None] * x,
                         axis=-1)
    return float(res) if x.ndim == 1 else res


def canonicalize_sign(lam: float, x: np.ndarray, m: int) -> tuple[float, np.ndarray]:
    """Canonical representative of the sign symmetry.

    For even ``m``, ``(lambda, -x)`` is also an eigenpair: flip ``x`` so its
    largest-magnitude entry is positive.  For odd ``m``, ``(-lambda, -x)``
    is the mirror pair: choose the representative with ``lambda >= 0``
    (flipping ``x`` accordingly), breaking ``lambda == 0`` ties by entry
    sign like the even case.
    """
    lams, vecs = _canonicalize_rows([lam], [x], m)
    return float(lams[0]), vecs[0]


def _canonicalize_rows(lams: np.ndarray, vecs: np.ndarray,
                       m: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`canonicalize_sign` applied to every row of ``lams (k,)``,
    ``vecs (k, n)`` at once."""
    lams = np.array(lams, dtype=np.float64)
    vecs = np.array(vecs, dtype=np.float64)
    decided = np.zeros(lams.shape, dtype=bool)
    if m % 2 == 1:
        neg = lams < 0
        lams[neg] = -lams[neg]
        vecs[neg] = -vecs[neg]
        decided = neg | (lams > 0)
    if vecs.size:
        pivot = np.argmax(np.abs(vecs), axis=1)
        flip = ~decided & (vecs[np.arange(vecs.shape[0]), pivot] < 0)
        vecs[flip] = -vecs[flip]
    return lams, vecs


def hessian_matrix(tensor: SymmetricTensor, x: np.ndarray) -> np.ndarray:
    """The ``n x n`` symmetric matrix ``(m-1) * (A x^{m-2})``.

    This is ``1/m`` times the (unconstrained) Hessian of ``f(x) = A x^m``;
    its restriction to the tangent space of the sphere, compared against
    ``lambda``, determines the stability of an eigenpair (Kolda & Mayo).
    Requires ``m >= 2``; for ``m = 2`` it is just the matrix ``A`` itself.
    A stack of points ``x (..., n)`` gives ``(..., n, n)`` (one
    :meth:`~repro.kernels.plan.KernelPlan.ax_m2` call).
    """
    x = np.asarray(x, dtype=np.float64)
    return _plan(tensor).ax_m2(np.asarray(tensor.values, dtype=np.float64), x)


def tangent_basis(x: np.ndarray) -> np.ndarray:
    """Orthonormal bases ``(..., n, n-1)`` of the tangent spaces of the
    sphere at the points ``x (..., n)``.

    The Householder reflector ``I - 2 v v^T / (v^T v)`` with
    ``v = x + sign(x_0) ||x|| e_0`` maps ``x`` onto ``e_0``, so its
    remaining ``n - 1`` columns span the orthogonal complement of ``x`` —
    one rank-one update per point instead of an SVD.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    v = x.copy()
    v[..., 0] += np.where(x[..., 0] < 0, -1.0, 1.0) * np.linalg.norm(x, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):  # x = 0 gives NaN
        scale = 2.0 / np.einsum("...i,...i->...", v, v)
        basis = -scale[..., None, None] * v[..., :, None] * v[..., None, 1:]
    basis[..., 1:, :] += np.eye(n - 1)
    return basis


def tangent_eigenvalues(H: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric ``H (..., n, n)`` restricted
    to the tangent spaces at ``x (..., n)``: one stacked ``eigvalsh`` over
    ``(..., n-1, n-1)``.  Points whose restriction is not finite get NaN
    eigenvalues (LAPACK would refuse them)."""
    basis = tangent_basis(x)
    with np.errstate(invalid="ignore", over="ignore"):  # NaN rows handled below
        restricted = np.swapaxes(basis, -1, -2) @ H @ basis
    restricted = 0.5 * (restricted + np.swapaxes(restricted, -1, -2))
    lead, k = restricted.shape[:-2], restricted.shape[-1]
    flat = restricted.reshape((int(np.prod(lead)), k, k))
    evals = np.full(flat.shape[:2], np.nan)
    ok = np.isfinite(flat).all(axis=(1, 2))
    if ok.any():
        evals[ok] = np.linalg.eigvalsh(flat[ok])
    return evals.reshape(lead + (k,))


def projected_hessian_eigenvalues(
    tensor: SymmetricTensor, lam, x: np.ndarray
) -> np.ndarray:
    """Eigenvalues of ``P ((m-1) A x^{m-2} - lambda I) P`` restricted to the
    tangent space at ``x`` (``P = I - x x^T``), in ascending order.

    All negative  -> ``x`` is a strict local maximum of ``f`` on the sphere
    (positive stable); all positive -> local minimum (negative stable);
    mixed signs -> saddle.  Stacked pairs ``x (k, n)``, ``lam (k,)`` give
    ``(k, n-1)``.
    """
    x = np.asarray(x, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    H = hessian_matrix(tensor, x) - lam[..., None, None] * np.eye(tensor.n)
    return tangent_eigenvalues(H, x)


def _stability(evals: np.ndarray, tol: float) -> np.ndarray:
    """Stability labels of stacked projected-Hessian spectra ``(k, n-1)``
    (see :func:`classify_eigenpair`)."""
    labels = np.full(evals.shape[0], "unstable", dtype=object)
    if evals.shape[-1] == 0:
        labels[:] = "pos_stable"  # the sphere is two points
        return labels
    scale = np.fmax(1.0, np.max(np.abs(evals), axis=-1))
    labels[np.all(evals > 0, axis=-1)] = "neg_stable"
    labels[np.all(evals < 0, axis=-1)] = "pos_stable"
    labels[np.any(np.abs(evals) <= tol * scale[:, None], axis=-1)] = "degenerate"
    return labels


def classify_eigenpair(
    tensor: SymmetricTensor, lam: float, x: np.ndarray, tol: float = 1e-8
) -> str:
    """Stability label of an eigenpair (see
    :func:`projected_hessian_eigenvalues`): ``"pos_stable"`` (local max of
    ``f``), ``"neg_stable"`` (local min), ``"unstable"`` (saddle) or
    ``"degenerate"`` (an eigenvalue within ``tol`` of zero, relative to
    the largest)."""
    evals = projected_hessian_eigenvalues(tensor, lam, x)
    return str(_stability(evals[None], tol)[0])


def dedupe_eigenpairs(
    eigenvalues: np.ndarray,
    eigenvectors: np.ndarray,
    m: int,
    tensor: SymmetricTensor | None = None,
    lambda_tol: float = 1e-6,
    angle_tol: float = 1e-4,
    classify: bool = False,
    converged_mask: np.ndarray | None = None,
) -> list[Eigenpair]:
    """Cluster multistart results into distinct eigenpairs.

    Two results are the same pair when their eigenvalues agree to
    ``lambda_tol`` (absolute, after sign canonicalization) and their vectors
    are parallel to within ``angle_tol`` radians (up to the even-order sign
    symmetry).  Results flagged unconverged via ``converged_mask`` are
    dropped.  Returns pairs sorted by descending eigenvalue, each carrying
    its occurrence count; with ``classify=True`` (requires ``tensor``)
    residuals and stability labels are filled in.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64).ravel()
    eigenvectors = np.asarray(eigenvectors, dtype=np.float64)
    if eigenvectors.size % max(1, eigenvalues.shape[0]) != 0 or (
        eigenvectors.ndim > 1 and eigenvectors.shape[0] != eigenvalues.shape[0]
    ):
        raise ValueError(
            f"eigenvector array of shape {eigenvectors.shape} does not match "
            f"{eigenvalues.shape[0]} eigenvalues"
        )
    eigenvectors = eigenvectors.reshape(eigenvalues.shape[0], -1)
    if converged_mask is not None:
        keep = np.asarray(converged_mask, dtype=bool).ravel()
        eigenvalues = eigenvalues[keep]
        eigenvectors = eigenvectors[keep]

    clusters: list[Eigenpair] = []
    cos_tol = np.cos(angle_tol)
    for lam, vec in zip(*_canonicalize_rows(eigenvalues, eigenvectors, m)):
        lam = float(lam)
        matched = False
        for pair in clusters:
            if abs(pair.eigenvalue - lam) > lambda_tol:
                continue
            cosine = abs(float(np.dot(pair.eigenvector, vec)))
            if cosine >= cos_tol:
                # running mean keeps the representative centered
                w = pair.occurrences
                merged = (w * pair.eigenvector + vec * np.sign(
                    np.dot(pair.eigenvector, vec) or 1.0
                )) / (w + 1)
                nrm = np.linalg.norm(merged)
                if nrm > 0:
                    pair.eigenvector = merged / nrm
                pair.eigenvalue = (w * pair.eigenvalue + lam) / (w + 1)
                pair.occurrences += 1
                matched = True
                break
        if not matched:
            clusters.append(Eigenpair(eigenvalue=lam, eigenvector=vec))

    clusters.sort(key=lambda p: -p.eigenvalue)
    if tensor is not None and clusters:
        # residuals and labels of every cluster in one stacked call each
        lams = np.array([p.eigenvalue for p in clusters])
        vecs = np.stack([p.eigenvector for p in clusters])
        residuals = eigen_residual(tensor, lams, vecs)
        labels = (_stability(projected_hessian_eigenvalues(tensor, lams, vecs),
                             1e-8) if classify else None)
        for k, pair in enumerate(clusters):
            pair.residual = float(residuals[k])
            if classify:
                pair.stability = str(labels[k])
    return clusters
