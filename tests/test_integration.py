"""Cross-module integration tests: full workflows through multiple
subsystems, including persistence and the performance substrate."""

import numpy as np
import pytest

from repro.core import (
    analyze_fixed_point,
    find_eigenpairs_batch,
    multistart_sshopm,
    starting_vectors,
    suggested_shift,
)
from repro.gpu import (
    divergence_adjusted_iterations,
    predict_sshopm,
    warp_profile,
)
from repro.io import load_phantom, save_phantom, save_results
from repro.mri import (
    evaluate_detection,
    extract_fibers_batch,
    fit_symmetric_batch,
    make_phantom,
    sh_to_tensor,
    fit_sh,
)
from repro.parallel import parallel_fleet_solve, predict_cpu_sshopm
from repro.symtensor import SymmetricTensorBatch


class TestFullPipelineWithPersistence:
    def test_phantom_save_solve_score(self, tmp_path):
        """Generate -> save -> load -> solve -> persist results -> score."""
        phantom = make_phantom(rows=4, cols=4, num_gradients=24,
                               noise_sigma=0.01, rng=31)
        path = tmp_path / "phantom.npz"
        save_phantom(path, phantom)
        loaded = load_phantom(path)

        fibers = extract_fibers_batch(loaded.tensors, num_starts=48, rng=32)
        rep = evaluate_detection([f.directions for f in fibers],
                                 loaded.true_directions)
        assert rep.correct_count_fraction > 0.9

        raw = multistart_sshopm(loaded.tensors, num_starts=16, alpha=0.0,
                                rng=33, tol=1e-8, max_iters=200)
        save_results(tmp_path / "results.npz", raw)
        assert (tmp_path / "results.npz").exists()

    def test_sh_route_through_pipeline(self):
        """Fit each voxel via spherical harmonics, convert to tensors, and
        confirm the eigen-solver sees the same principal directions as the
        direct tensor fit (Section IV's two equivalent parameterizations)."""
        phantom = make_phantom(rows=3, cols=3, num_gradients=32, rng=34)
        direct = phantom.tensors
        via_sh = SymmetricTensorBatch(
            np.stack([
                sh_to_tensor(fit_sh(phantom.gradients, phantom.adc[t], 4), 4).values
                for t in range(len(direct))
            ]),
            4, 3,
        )
        assert np.allclose(via_sh.values, direct.values, atol=1e-8)


class TestSolverToPerformanceModel:
    def test_measured_convergence_drives_prediction(self):
        """The full loop: solve the batch, profile warp divergence from the
        measured iteration counts, and predict the device runtime."""
        phantom = make_phantom(rows=4, cols=4, num_gradients=24, rng=35)
        starts = starting_vectors(32, 3, rng=36)
        res = multistart_sshopm(phantom.tensors, starts=starts, alpha=0.0,
                                tol=1e-6, max_iters=150, dtype=np.float32)
        iters = np.maximum(res.iterations, 1)
        prof = warp_profile(iters)
        pred = predict_sshopm(num_tensors=16, num_starts=32,
                              iterations=divergence_adjusted_iterations(iters))
        assert pred.seconds > 0
        assert prof.simt_efficiency <= 1.0
        cpu = predict_cpu_sshopm(pred.gflops * pred.seconds * 1e9,
                                 variant="unrolled", cores=1)
        assert cpu.seconds > pred.seconds  # GPU wins at this scale

    def test_parallel_executor_full_application(self):
        phantom = make_phantom(rows=4, cols=2, num_gradients=24, rng=37)
        rep = parallel_fleet_solve(phantom.tensors, workers=3, num_starts=16,
                                   rng=38, max_iters=300, executor="thread")
        assert rep.result.eigenvalues.shape == (8, 16)


class TestTheoryMeetsPractice:
    def test_found_pairs_are_attracting_under_used_shift(self):
        """Every pair multistart reports must be an attracting fixed point
        of the iteration that found it."""
        phantom = make_phantom(rows=2, cols=2, num_gradients=24, rng=39)
        batch = phantom.tensors
        alpha = max(suggested_shift(batch[t]) for t in range(len(batch)))
        pairs, _ = find_eigenpairs_batch(batch, num_starts=32, alpha=alpha,
                                         rng=40, tol=1e-12, max_iters=4000)
        checked = 0
        for t, plist in enumerate(pairs):
            for p in plist:
                if p.occurrences < 2 or p.residual > 1e-6:
                    continue
                ana = analyze_fixed_point(batch[t], p.eigenvalue,
                                          p.eigenvector, alpha)
                assert ana.attracting, (t, p.eigenvalue, ana.rate)
                checked += 1
        assert checked >= 4
