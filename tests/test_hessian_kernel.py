"""The plan-backed Hessian kernel ``KernelPlan.ax_m2`` and the stacked
GEAP shift built on it, against the interpreted oracles.

``ax_m2`` returns ``(m-1) A x^{m-2}``; the executable specification is
``(m-1) * ttsv_compressed(tensor, x, 2)`` (the tensor itself for m=2).
The stacked ``projected_shift`` must agree with its own single-iterate
call lane by lane and with the retired per-lane shift of
:mod:`tests.fleet_geap_reference`.
"""

import numpy as np
import pytest

from repro.core.eigenpairs import (
    classify_eigenpair,
    dedupe_eigenpairs,
    eigen_residual,
    projected_hessian_eigenvalues,
    tangent_basis,
)
from repro.kernels.batched import ax_m2_batched
from repro.kernels.compressed import ttsv_compressed
from repro.kernels.plan import get_plan
from repro.kernels.tables import kernel_tables
from repro.solvers.geap import projected_shift, tangent_hessian_eigenvalues
from repro.symtensor.random import random_symmetric_batch, random_symmetric_tensor
from repro.symtensor.storage import SymmetricTensor, SymmetricTensorBatch

from tests.fleet_geap_reference import ref_projected_shift

SHAPES = [(m, n) for m in range(2, 7) for n in range(1, 8)]
VARIANTS = ["vectorized", "unrolled", "unrolled_cse", "blocked"]
BACKENDS = ["numpy", "numba"]


def oracle(tensor: SymmetricTensor, x: np.ndarray) -> np.ndarray:
    if tensor.m == 2:
        return tensor.to_dense()
    return (tensor.m - 1) * ttsv_compressed(tensor, x, 2).to_dense()


def close(got, want):
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


class TestAxM2:
    @pytest.mark.parametrize("m,n", SHAPES, ids=lambda v: str(v))
    def test_single_vector_matches_ttsv(self, m, n):
        tensor = random_symmetric_tensor(m, n, rng=10 * m + n)
        x = np.random.default_rng(n).standard_normal(n)
        H = get_plan(m, n).ax_m2(tensor.values, x)
        assert H.shape == (n, n)
        close(H, oracle(tensor, x))
        np.testing.assert_array_equal(H, H.T)

    @pytest.mark.parametrize("m,n", SHAPES, ids=lambda v: str(v))
    def test_stacked_forms_match_ttsv(self, m, n):
        T, V = 3, 4
        batch = random_symmetric_batch(T, m, n, rng=m + 7 * n)
        x = np.random.default_rng(m).standard_normal((T, V, n))
        want = np.stack([[oracle(batch[t], x[t, v]) for v in range(V)]
                         for t in range(T)])
        plan = get_plan(m, n)
        # (T, 1, U) x (T, V, n): each tensor broadcast over its starts
        close(plan.ax_m2(batch.values[:, None, :], x), want)
        # per-lane values (L, U) x (L, n)
        lanes = np.repeat(batch.values, V, axis=0)
        close(plan.ax_m2(lanes, x.reshape(T * V, n)),
              want.reshape(T * V, n, n))
        # one shared tensor (U,) x (V, n)
        close(plan.ax_m2(batch.values[0], x[0]), want[0])
        # the table-level kernel behind the plan
        close(ax_m2_batched(batch.values[:, None, :], x, kernel_tables(m, n)),
              want)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("m,n", [(2, 3), (3, 1), (3, 4), (4, 3), (5, 2)],
                             ids=lambda v: str(v))
    def test_every_variant_and_backend(self, variant, backend, m, n):
        tensor = random_symmetric_tensor(m, n, rng=3)
        x = np.random.default_rng(4).standard_normal((5, n))
        plan = get_plan(m, n, variant, backend)
        want = np.stack([oracle(tensor, xi) for xi in x])
        close(plan.ax_m2(tensor.values, x), want)

    def test_is_jacobian_of_ax_m1(self):
        tensor = random_symmetric_tensor(4, 5, rng=1)
        x = np.random.default_rng(2).standard_normal(5)
        plan = get_plan(4, 5)
        h = 1e-6
        fd = np.stack([(plan.ax_m1(tensor.values, x + h * e)
                        - plan.ax_m1(tensor.values, x - h * e)) / (2 * h)
                       for e in np.eye(5)], axis=1)
        np.testing.assert_allclose(plan.ax_m2(tensor.values, x), fd,
                                   rtol=1e-6, atol=1e-6)

    def test_counts_flops(self):
        from repro.util.flopcount import FlopCounter

        counter = FlopCounter()
        get_plan(4, 3).ax_m2(random_symmetric_tensor(4, 3, rng=0).values,
                             np.ones((2, 3)), counter=counter)
        assert counter.flops > 0


class TestTangentBasis:
    def test_orthonormal_complement(self):
        x = np.random.default_rng(0).standard_normal((6, 5))
        x[1, 0] = 0.0
        x[2] *= -1
        B = tangent_basis(x)
        assert B.shape == (6, 5, 4)
        np.testing.assert_allclose(np.einsum("li,lik->lk", x, B), 0,
                                   atol=1e-14)
        np.testing.assert_allclose(np.swapaxes(B, 1, 2) @ B,
                                   np.broadcast_to(np.eye(4), (6, 4, 4)),
                                   atol=1e-14)

    def test_n1_is_empty(self):
        assert tangent_basis(np.array([1.0])).shape == (1, 0)


class TestStackedShift:
    @pytest.mark.parametrize("mode", ["max", "min"])
    @pytest.mark.parametrize("m,n", [(3, 3), (4, 6), (5, 2), (6, 4)],
                             ids=lambda v: str(v))
    def test_matches_scalar_calls(self, mode, m, n):
        L = 7
        batch = random_symmetric_batch(L, m, n, rng=m * n)
        x = np.random.default_rng(1).standard_normal((L, n))
        got = projected_shift(batch, x, 1e-6, mode)
        assert got.shape == (L,)
        want = [projected_shift(batch[i], x[i], 1e-6, mode) for i in range(L)]
        assert all(isinstance(w, float) for w in want)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        # one shared tensor against stacked iterates
        shared = projected_shift(batch[0], x, 1e-6, mode)
        np.testing.assert_allclose(
            shared, [projected_shift(batch[0], xi, 1e-6, mode) for xi in x],
            rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("m,n", [(3, 3), (4, 6), (6, 2)],
                             ids=lambda v: str(v))
    def test_matches_retired_per_lane_shift(self, m, n):
        batch = random_symmetric_batch(5, m, n, rng=9)
        x = np.random.default_rng(5).standard_normal((5, n))
        got = projected_shift(batch, x, 1e-6)
        want = [ref_projected_shift(batch[i], x[i], 1e-6) for i in range(5)]
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_n1_gives_zero_shifts(self):
        batch = random_symmetric_batch(3, 4, 1, rng=0)
        x = np.array([[1.0], [-2.0], [0.5]])
        np.testing.assert_array_equal(projected_shift(batch, x, 1e-6),
                                      np.zeros(3))
        assert projected_shift(batch[0], x[0], 1e-6, "min") == 0.0
        assert tangent_hessian_eigenvalues(batch, x).shape == (3, 0)

    @pytest.mark.parametrize("mode", ["max", "min"])
    def test_nan_lanes_stay_local(self, mode):
        batch = random_symmetric_batch(4, 4, 3, rng=2)
        values = batch.values.copy()
        values[1, 0] = np.nan
        x = np.random.default_rng(3).standard_normal((4, 3))
        x[2, 1] = np.inf
        with np.errstate(invalid="ignore"):  # the inf lane's kernel rows
            got = projected_shift(SymmetricTensorBatch(values, 4, 3), x, 1e-6,
                                  mode)
        assert np.isnan(got[1]) and np.isnan(got[2])
        clean = [0, 3]
        np.testing.assert_allclose(
            got[clean], projected_shift(batch.subset(clean), x[clean], 1e-6,
                                        mode), rtol=1e-12, atol=1e-12)
        assert np.isnan(projected_shift(
            SymmetricTensor(values[1], 4, 3), x[0], 1e-6, mode))


class TestStackedPostProcessing:
    def test_residuals_and_labels_match_per_pair_calls(self):
        tensor = random_symmetric_tensor(4, 4, rng=6)
        x = np.random.default_rng(7).standard_normal((6, 4))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        lam = np.random.default_rng(8).standard_normal(6)
        res = eigen_residual(tensor, lam, x)
        np.testing.assert_allclose(
            res, [eigen_residual(tensor, l, v) for l, v in zip(lam, x)],
            rtol=1e-14)
        evals = projected_hessian_eigenvalues(tensor, lam, x)
        assert evals.shape == (6, 3)
        for k in range(6):
            np.testing.assert_allclose(
                evals[k], projected_hessian_eigenvalues(tensor, lam[k], x[k]),
                rtol=1e-12, atol=1e-12)

    def test_dedupe_classifies_like_classify_eigenpair(self):
        from repro.solvers import sshopm, suggested_shift

        tensor = random_symmetric_tensor(3, 4, rng=4)
        runs = [sshopm(tensor, alpha=suggested_shift(tensor), rng=s, tol=1e-14,
                       max_iters=3000) for s in range(12)]
        pairs = dedupe_eigenpairs([r.eigenvalue for r in runs],
                                  [r.eigenvector for r in runs], 3,
                                  tensor=tensor, classify=True)
        for p in pairs:
            assert p.stability == classify_eigenpair(tensor, p.eigenvalue,
                                                     p.eigenvector)
            assert p.residual == pytest.approx(
                eigen_residual(tensor, p.eigenvalue, p.eigenvector),
                abs=1e-15)
