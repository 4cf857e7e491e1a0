"""Exact eigenpairs for dimension n = 2 via polynomial root finding.

For ``n = 2`` the tensor eigenproblem reduces to a univariate polynomial:
parametrize ``x = (cos t, sin t)`` and eliminate ``lambda`` from
``A x^{m-1} = lambda x``:

    g(x) := x_2 * (A x^{m-1})_1 - x_1 * (A x^{m-1})_2 = 0,

a homogeneous binary form of degree ``m``.  Dehomogenizing with
``x = (1, s)`` (plus the possible root at infinity ``x = (0, 1)``) turns
eigenvectors into roots of a degree-``<= m`` polynomial in ``s``, which
:func:`numpy.roots` solves exactly (to machine precision).

Cartwright & Sturmfels' count ``((m-1)^n - 1)/(m - 2) = m`` (for ``n=2``)
is visible directly: the binary form ``g`` has exactly ``m`` projective
roots over C counted with multiplicity.  This module is used as an
independent oracle for the iterative solvers: every real root must satisfy
the eigen equation, and SS-HOPM results must appear among the real roots.
"""

from __future__ import annotations

import numpy as np

from repro.core.eigenpairs import Eigenpair, canonicalize_sign, eigen_residual
from repro.symtensor.indexing import index_table, multiplicity_table, sigma_table
from repro.symtensor.storage import SymmetricTensor

__all__ = ["eigen_polynomial_n2", "exact_eigenpairs_n2"]


def eigen_polynomial_n2(tensor: SymmetricTensor) -> np.ndarray:
    """Coefficients (highest degree first, numpy convention) of the
    dehomogenized eigenvector polynomial ``p(s) = g(1, s)``.

    ``g(x) = x_2 (A x^{m-1})_1 - x_1 (A x^{m-1})_2`` expanded in the
    monomial basis ``x_1^{m-k} x_2^k``; with ``x = (1, s)`` the coefficient
    of ``s^k`` is the ``x_2^k`` coefficient of ``g``.
    """
    if tensor.n != 2:
        raise ValueError(f"exact solver requires n = 2, got n = {tensor.n}")
    m = tensor.m
    # (A x^{m-1})_j = sum_u sigma_u(j) a_u x^{mono(u) - e_j}: a binary form
    # of degree m-1.  Accumulate its coefficients in powers of x_2.
    idx = index_table(m, 2)  # (U, m) 0-based
    sig = sigma_table(m, 2)  # (U, 2)
    values = tensor.values
    # degree of x_2 in class u's monomial:
    deg2 = idx.sum(axis=1)  # number of 1s (0-based index 1 == x_2)
    f1 = np.zeros(m, dtype=np.float64)  # coeffs of (Ax^{m-1})_1 by x_2-degree
    f2 = np.zeros(m, dtype=np.float64)
    for u in range(idx.shape[0]):
        d = int(deg2[u])
        if sig[u, 0]:
            f1[d] += sig[u, 0] * values[u]  # monomial loses one x_1
        if sig[u, 1]:
            f2[d - 1] += sig[u, 1] * values[u]  # loses one x_2
    # g = x_2 * f1 - x_1 * f2: by x_2-degree k (0..m)
    g = np.zeros(m + 1, dtype=np.float64)
    g[1:] += f1  # x_2 * f1 shifts degree up by one
    g[:-1] -= f2  # x_1 * f2 keeps x_2-degree
    # numpy.roots wants highest degree first: p(s) coeffs, degree m .. 0
    return g[::-1]


def exact_eigenpairs_n2(
    tensor: SymmetricTensor,
    real_tol: float = 1e-8,
    classify: bool = True,
) -> list[Eigenpair]:
    """All real eigenpairs of a symmetric tensor in ``R^[m,2]``, exactly.

    Finds the real projective roots of the eigenvector polynomial (plus
    the root at infinity when the leading coefficient vanishes), converts
    each to a unit eigenvector, computes its eigenvalue as ``A x^m``, and
    returns canonicalized, classified :class:`Eigenpair` objects sorted by
    descending eigenvalue.  For odd ``m`` the ``(-lambda, -x)`` mirrors are
    folded onto their ``lambda >= 0`` representatives.
    """
    from repro.kernels.compressed import ax_m_compressed

    coeffs = eigen_polynomial_n2(tensor)
    m = tensor.m

    vectors: list[np.ndarray] = []
    # root at infinity: leading coefficient (degree m) ~ 0 -> x = (0, 1)
    scale = float(np.max(np.abs(coeffs))) or 1.0
    trimmed = coeffs.copy()
    if abs(trimmed[0]) <= 1e-13 * scale:
        vectors.append(np.array([0.0, 1.0]))
    # strip (numerically) zero leading coefficients before rooting
    nz = np.nonzero(np.abs(trimmed) > 1e-13 * scale)[0]
    if nz.size:
        poly = trimmed[nz[0] :]
        if poly.size > 1:
            for root in np.roots(poly):
                if abs(root.imag) <= real_tol * (1 + abs(root.real)):
                    v = np.array([1.0, float(root.real)])
                    vectors.append(v / np.linalg.norm(v))

    pairs: list[Eigenpair] = []
    for v in vectors:
        lam = float(ax_m_compressed(tensor, v))
        # polish with one Newton-flavored normalization: scale-invariant
        res = eigen_residual(tensor, lam, v)
        lam_c, v_c = canonicalize_sign(lam, v, m)
        # dedupe exact duplicates (double roots)
        duplicate = False
        for p in pairs:
            if abs(p.eigenvalue - lam_c) < 1e-8 and abs(abs(p.eigenvector @ v_c) - 1) < 1e-8:
                duplicate = True
                break
        if duplicate:
            continue
        pair = Eigenpair(eigenvalue=lam_c, eigenvector=v_c, residual=res)
        if classify:
            from repro.core.eigenpairs import classify_eigenpair

            pair.stability = classify_eigenpair(tensor, lam_c, v_c)
        pairs.append(pair)
    pairs.sort(key=lambda p: -p.eigenvalue)
    return pairs
