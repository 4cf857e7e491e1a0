"""``multistart_sshopm`` (an adapter over the fleet engine) against the
retired lockstep loop kept in :mod:`tests.lockstep_reference`.

Both paths run the same update arithmetic on every live lane; they differ
only in how lambda is formed (``x . A x^{m-1}`` in the fleet, a separate
``A x^m`` contraction in the lockstep loop) and in that the fleet stops
iterating a lane once it retires.  So the masks, sweep and per-lane
iteration counts must match exactly and the values to 1e-12 -- as long
as ``tol`` sits well above the rounding noise of lambda (about 1e-16 here);
at ``tol`` near that noise the two lambdas can cross it a sweep apart.
"""

import numpy as np
import pytest

from repro.core import canonicalize_sign, exact_eigenpairs_n2
from repro.core.multistart import multistart_sshopm, starting_vectors
from repro.solvers import suggested_shift
from repro.symtensor.random import (
    kolda_mayo_example_3x3x3,
    random_odeco_tensor,
    random_symmetric_batch,
    random_symmetric_tensor,
)
from repro.symtensor.storage import SymmetricTensor, SymmetricTensorBatch

from tests.lockstep_reference import lockstep_multistart


def assert_equivalent(got, want, atol=1e-12):
    assert got.sweeps == want.sweeps
    np.testing.assert_array_equal(got.converged, want.converged)
    np.testing.assert_array_equal(got.failed, want.failed)
    live = ~want.failed
    np.testing.assert_array_equal(got.iterations[live], want.iterations[live])
    np.testing.assert_allclose(got.eigenvalues[live], want.eigenvalues[live],
                               rtol=0, atol=atol)
    gx, wx = got.eigenvectors[live], want.eigenvectors[live]
    dist = np.minimum(np.abs(gx - wx).max(-1), np.abs(gx + wx).max(-1))
    assert dist.max(initial=0.0) <= atol


def both(tensors, **kw):
    starts = kw.pop("starts")
    return (multistart_sshopm(tensors, starts=starts, **kw),
            lockstep_multistart(tensors, starts=starts, **kw))


class TestAgainstLockstep:
    @pytest.mark.parametrize("m,n,seed", [(3, 4, 5), (4, 3, 7)])
    def test_odeco(self, m, n, seed):
        tensor, _, weights = random_odeco_tensor(m, n, rng=seed)
        starts = starting_vectors(24, n, rng=seed)
        got, want = both(tensor, starts=starts, alpha=suggested_shift(tensor),
                         tol=1e-10, max_iters=3000)
        assert_equivalent(got, want)
        assert got.converged.any()
        # the robust pairs are the construction weights
        lams = np.abs(got.eigenvalues[got.converged])
        assert np.min(np.abs(lams[:, None] - weights[None, :]), axis=0).min() < 1e-8

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_exact_n2(self, m):
        tensor = random_symmetric_tensor(m, 2, rng=100 + m)
        starts = starting_vectors(16, 2, rng=m)
        got, want = both(tensor, starts=starts, alpha=suggested_shift(tensor),
                         tol=1e-10, max_iters=8000)
        assert_equivalent(got, want)
        exact = np.array([p.eigenvalue for p in exact_eigenpairs_n2(tensor)])
        for lam, x in zip(got.eigenvalues[got.converged],
                          got.eigenvectors[got.converged]):
            lam, _ = canonicalize_sign(lam, x, m)
            assert np.min(np.abs(exact - lam)) < 1e-6

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_kolda_mayo(self, sign):
        tensor = kolda_mayo_example_3x3x3()
        starts = starting_vectors(32, 3, rng=11)
        got, want = both(tensor, starts=starts,
                         alpha=sign * suggested_shift(tensor),
                         tol=1e-10, max_iters=5000)
        assert_equivalent(got, want)
        if sign > 0:
            assert np.any(np.abs(got.eigenvalues[got.converged] - 0.8730) < 1e-3)

    def test_random_batch_with_unconverged_lanes(self):
        batch = random_symmetric_batch(6, 4, 3, rng=3)
        starts = starting_vectors(16, 3, rng=4)
        got, want = both(batch, starts=starts, alpha=1.0, tol=1e-12,
                         max_iters=40)
        assert_equivalent(got, want)
        assert not got.converged.all()

    @pytest.mark.parametrize("backend", ["batched_unrolled", "blocked"])
    def test_other_backends(self, backend):
        batch = random_symmetric_batch(4, 3, 4, rng=8)
        starts = starting_vectors(12, 4, rng=9)
        got, want = both(batch, starts=starts, alpha=4.0, tol=1e-12,
                         max_iters=600, backend=backend)
        assert_equivalent(got, want)

    def test_float32(self):
        tensor = random_symmetric_tensor(4, 3, rng=12)
        starts = starting_vectors(16, 3, rng=13, dtype=np.float32)
        got, want = both(tensor, starts=starts, alpha=10.0, tol=1e-5,
                         max_iters=2000, dtype=np.float32)
        assert got.eigenvalues.dtype == want.eigenvalues.dtype == np.float32
        assert got.eigenvectors.dtype == np.float32
        assert got.converged.any()
        # lambda is formed in float64 from float32 iterates in the fleet and
        # by a float32 contraction in the lockstep loop: agree to float32
        assert_equivalent(got, want, atol=1e-5)

    def test_dead_lanes(self):
        """A zero tensor with no shift kills every update: every lane fails
        on the first sweep in both paths (``iterations`` differs there:
        the fleet counts the sweep a lane died in)."""
        batch = SymmetricTensorBatch(np.zeros((2, 15)), 4, 3)
        starts = starting_vectors(4, 3, rng=1)
        got, want = both(batch, starts=starts, alpha=0.0, max_iters=10)
        assert got.failed.all() and want.failed.all()
        assert not got.converged.any()
        assert_equivalent(got, want)


class TestPhantomFibers:
    def test_fibers_identical_on_16x16_phantom(self, monkeypatch):
        import repro.mri.fibers as fibers
        from repro.mri.fit import fit_symmetric_batch
        from repro.mri.phantom import make_phantom

        phantom = make_phantom(rows=16, cols=16, num_gradients=24,
                               noise_sigma=0.01, rng=1)
        tensors = fit_symmetric_batch(phantom.gradients, phantom.adc, m=4)
        kw = dict(num_starts=32, alpha=0.0, tol=1e-8, max_iters=200)
        got = fibers.extract_fibers_batch(tensors, rng=1, **kw)

        def lockstep(tensors, config=None, **kw):
            return lockstep_multistart(tensors, **kw)

        monkeypatch.setattr(fibers, "multistart_sshopm", lockstep)
        want = fibers.extract_fibers_batch(tensors, rng=1, **kw)
        assert len(got) == len(want) == 256
        for g, w in zip(got, want):
            assert g.count == w.count
            assert g.num_candidates == w.num_candidates
            np.testing.assert_allclose(g.directions, w.directions,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(g.eigenvalues, w.eigenvalues,
                                       rtol=0, atol=1e-12)


def test_single_tensor_promotion_matches():
    tensor = random_symmetric_tensor(4, 3, rng=21)
    assert isinstance(tensor, SymmetricTensor)
    starts = starting_vectors(8, 3, rng=22)
    got, want = both(tensor, starts=starts, alpha=5.0, tol=1e-12,
                     max_iters=500)
    assert got.eigenvalues.shape == want.eigenvalues.shape == (1, 8)
    assert_equivalent(got, want)
