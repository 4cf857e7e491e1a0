"""``fleet_solve(adaptive="geap")`` against the retired per-lane shift
loop kept in :mod:`tests.fleet_geap_reference`.

The fleet computes every live lane's projected-Hessian shift in one
stacked call (plan Hessian kernel, Householder tangent basis, stacked
``eigvalsh``); the oracle computes them one lane at a time with the
interpreted Hessian and an SVD basis.  The shifts agree to rounding, so
the converged/failed masks, the per-lane iteration counts and the sweep
count must match exactly and lambda to 1e-10 on converged lanes.  A lane
that never converges (one exact n=2, m=6 lane wanders with a zero shift
for all 400 sweeps) ends wherever rounding has carried it, so only its
flags and count are pinned.
"""

import numpy as np
import pytest

from repro.core.multistart import starting_vectors
from repro.engine import fleet_solve
from repro.symtensor.random import (
    kolda_mayo_example_3x3x3,
    random_odeco_tensor,
    random_symmetric_batch,
    random_symmetric_tensor,
)
from repro.symtensor.storage import SymmetricTensorBatch

from tests.fleet_geap_reference import ref_fleet_geap


def batch_of(*tensors):
    return SymmetricTensorBatch.from_tensors(tensors)


FIXTURES = {
    "odeco_m3_n4": lambda: batch_of(random_odeco_tensor(3, 4, rng=5)[0],
                                    random_odeco_tensor(3, 4, rng=6)[0]),
    "odeco_m4_n3": lambda: batch_of(random_odeco_tensor(4, 3, rng=7)[0]),
    **{f"exact_n2_m{m}": (lambda m=m: batch_of(
        random_symmetric_tensor(m, 2, rng=100 + m),
        random_symmetric_tensor(m, 2, rng=200 + m)))
       for m in (3, 4, 5, 6)},
    "kolda_mayo": lambda: batch_of(kolda_mayo_example_3x3x3()),
    "random_m4_n6": lambda: random_symmetric_batch(3, 4, 6, rng=3),
}


@pytest.mark.parametrize("name", sorted(FIXTURES))
@pytest.mark.parametrize("compact_every", [1, 8])
def test_fleet_geap_matches_per_lane_loop(name, compact_every):
    batch = FIXTURES[name]()
    starts = starting_vectors(6, batch.n, rng=11)
    got = fleet_solve(batch, starts=starts, tol=1e-10, max_iters=400,
                      adaptive="geap", compact_every=compact_every)
    want = ref_fleet_geap(batch, starts, tol=1e-10, max_iters=400,
                          compact_every=compact_every)
    assert got.sweeps == want["sweeps"]
    np.testing.assert_array_equal(got.converged, want["converged"])
    np.testing.assert_array_equal(got.failed, want["failed"])
    np.testing.assert_array_equal(got.iterations, want["iterations"])
    conv = want["converged"]
    np.testing.assert_allclose(got.eigenvalues[conv],
                               want["eigenvalues"][conv], rtol=0, atol=1e-10)
    np.testing.assert_allclose(got.shifts[conv], want["shifts"][conv],
                               rtol=0, atol=1e-8)
    assert got.converged.any()
