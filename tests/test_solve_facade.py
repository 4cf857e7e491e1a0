"""``repro.solve`` facade: routing by request shape, report pass-throughs,
and the ResultProtocol contract across every solver family."""

import numpy as np
import pytest

import repro
from repro.core.results import ResultProtocol
from repro.facade import SolveReport, SolveRequest
from repro.parallel import FleetRunReport
from repro.symtensor import random_symmetric_batch, random_symmetric_tensor


@pytest.fixture(scope="module")
def tensor():
    return random_symmetric_tensor(3, 3, rng=5)


@pytest.fixture(scope="module")
def batch():
    return random_symmetric_batch(4, 3, 3, rng=6)


class TestRouting:
    def test_single_start_routes_to_sshopm(self, tensor):
        assert SolveRequest(tensor).solver_name() == "sshopm"

    def test_single_start_adaptive_routes_to_adaptive(self, tensor):
        req = SolveRequest(tensor, adaptive=True)
        assert req.solver_name() == "adaptive_sshopm"

    def test_many_starts_route_to_multistart(self, tensor):
        assert SolveRequest(tensor, starts=8).solver_name() == "multistart_sshopm"
        explicit = np.eye(3)
        assert SolveRequest(tensor, starts=explicit).solver_name() == "multistart_sshopm"

    def test_explicit_1d_start_routes_to_sshopm(self, tensor):
        req = SolveRequest(tensor, starts=np.array([1.0, 0.0, 0.0]))
        assert req.solver_name() == "sshopm"

    def test_batch_routes_to_fleet(self, batch):
        assert SolveRequest(batch, starts=8).solver_name() == "fleet_solve"
        assert SolveRequest(batch).solver_name() == "fleet_solve"

    def test_batch_with_workers_routes_to_parallel(self, batch):
        req = SolveRequest(batch, starts=8, workers=3)
        assert req.solver_name() == "parallel_fleet_solve"

    def test_solve_reports_the_routed_solver(self, tensor, batch):
        assert repro.solve(tensor, alpha=5.0, rng=0).solver == "sshopm"
        assert repro.solve(tensor, adaptive=True, rng=0).solver == "adaptive_sshopm"
        assert repro.solve(tensor, starts=4, alpha=5.0, rng=0).solver == "multistart_sshopm"
        assert repro.solve(batch, starts=4, alpha=5.0, rng=0).solver == "fleet_solve"
        rep = repro.solve(batch, starts=4, alpha=5.0, rng=0, workers=2)
        assert rep.solver == "parallel_fleet_solve"
        assert isinstance(rep.extra, FleetRunReport)


class TestReport:
    def test_report_passthroughs(self, batch):
        rep = repro.solve(batch, starts=4, alpha=5.0, rng=0, max_iters=200)
        assert isinstance(rep, SolveReport)
        assert rep.seconds > 0
        assert rep.request.is_batch
        np.testing.assert_array_equal(rep.converged, rep.result.converged)
        assert rep.telemetry is rep.result.telemetry
        assert len(rep.eigenpairs()) == len(batch)

    def test_every_route_satisfies_result_protocol(self, tensor, batch):
        reports = [
            repro.solve(tensor, alpha=5.0, rng=0, max_iters=200),
            repro.solve(tensor, adaptive=True, rng=0, max_iters=200),
            repro.solve(tensor, starts=4, alpha=5.0, rng=0, max_iters=200),
            repro.solve(batch, starts=4, alpha=5.0, rng=0, max_iters=200),
        ]
        for rep in reports:
            assert isinstance(rep.result, ResultProtocol), rep.solver

    def test_shared_starts_make_routes_agree(self, tensor):
        starts = np.random.default_rng(3).standard_normal((6, 3))
        starts /= np.linalg.norm(starts, axis=1, keepdims=True)
        multi = repro.solve(tensor, starts=starts, alpha=5.0,
                            tol=1e-10, max_iters=400)
        singles = [
            repro.solve(tensor, starts=starts[v], alpha=5.0,
                        tol=1e-10, max_iters=400)
            for v in range(6)
        ]
        conv = np.atleast_2d(multi.result.converged)[0]
        lams = np.atleast_2d(multi.result.eigenvalues)[0]
        for v, single in enumerate(singles):
            if single.result.converged:
                assert conv[v]
                assert lams[v] == pytest.approx(
                    single.result.eigenvalue, abs=1e-7)

    def test_backend_alias_for_fleet_variant(self, batch):
        rep = repro.solve(batch, starts=4, alpha=5.0, rng=0,
                          max_iters=100, backend="unrolled")
        assert rep.result.variant == "unrolled"

    def test_bad_starts_ndim_rejected(self, tensor):
        with pytest.raises(ValueError, match="starts"):
            repro.solve(tensor, starts=np.zeros((2, 2, 2)))

    def test_exported_from_package_root(self):
        assert repro.solve is not None
        for name in ("solve", "SolveReport", "SolveRequest"):
            assert name in repro.__all__


ROUTES = {
    "sshopm": dict(alpha=6.0),
    "adaptive_sshopm": dict(adaptive=True),
    "geap": dict(method="geap"),
    "qrst": dict(method="qrst"),
    "multistart_sshopm": dict(starts=4, alpha=6.0),
    "fleet_solve": dict(starts=4, alpha=6.0, batch=True),
    "parallel_fleet_solve": dict(starts=4, alpha=6.0, batch=True, workers=2),
}


class TestDeadlineContract:
    """Every route honours ``deadline=`` and ``SolveConfig.deadline``: a
    deadline already past returns at once, unconverged, without error."""

    @pytest.mark.parametrize("via", ["keyword", "config"])
    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_past_deadline_returns_immediately(self, tensor, batch, route, via):
        import time

        from repro.core import SolveConfig

        kw = dict(ROUTES[route])
        problem = batch if kw.pop("batch", False) else tensor
        past = time.time() - 1.0
        if via == "keyword":
            kw["deadline"] = past
        else:
            kw["config"] = SolveConfig(deadline=past)
        report = repro.solve(problem, **kw)
        assert report.solver == route
        res = report.result
        if getattr(res, "stopped", False):
            return
        done = res.sweeps if hasattr(res, "sweeps") else res.iterations
        assert done == 0
        assert not np.any(res.converged)


    def test_deadline_and_stop_both_fire(self, tensor):
        import time

        report = repro.solve(tensor, alpha=6.0, deadline=time.time() - 1.0,
                             stop=lambda: False)
        assert report.result.iterations == 0
        polls = []
        report = repro.solve(tensor, alpha=6.0, deadline=time.time() + 60,
                             stop=lambda: polls.append(1) or len(polls) > 2)
        assert report.result.iterations == 2


class TestSingleStartRetry:
    """``config.retry`` re-runs the sshopm and adaptive single-start
    routes, as it does geap and qrst."""

    @staticmethod
    def flaky_pair(m, n):
        """Kernels whose first ``A x^{m-1}`` call returns NaN."""
        from repro.kernels.dispatch import KernelPair, get_kernels

        good = get_kernels("precomputed", m, n)
        calls = []

        def ax_m1(tensor, x):
            calls.append(1)
            y = np.asarray(good.ax_m1(tensor, x))
            return np.full_like(y, np.nan) if len(calls) == 1 else y

        return KernelPair(name="flaky", ax_m=good.ax_m, ax_m1=ax_m1)

    @pytest.mark.parametrize("route", ["sshopm", "adaptive_sshopm"])
    def test_flaky_kernels_recover_on_second_attempt(self, route):
        from repro.core import SolveConfig
        from repro.resilience import RetryOutcome, RetryPolicy

        A = random_symmetric_tensor(3, 3, rng=4)
        report = repro.solve(
            A, rng=0, tol=1e-10, max_iters=300,
            config=SolveConfig(retry=RetryPolicy(max_attempts=3)),
            kernels=self.flaky_pair(3, 3), guards=True,
            adaptive=route == "adaptive_sshopm",
            **({"alpha": 4.0} if route == "sshopm" else {}),
        )
        assert report.solver == route
        assert report.converged
        assert isinstance(report.extra, RetryOutcome)
        assert report.extra.attempts == 2
        assert [f.reason for f in report.extra.failures] == ["nonfinite"]
        assert report.extra.failures[0].solver == route

    @pytest.mark.parametrize("route", ["sshopm", "adaptive_sshopm", "geap"])
    def test_attempts_draw_distinct_starts(self, route):
        from repro.core import SolveConfig
        from repro.kernels.dispatch import KernelPair, get_kernels
        from repro.resilience import RetryPolicy
        from repro.resilience.retry import RetryExhausted

        good = get_kernels("precomputed", 3, 3)
        seen = []

        def ax_m1(tensor, x):
            seen.append(np.array(x, dtype=np.float64))
            return np.full(3, np.nan)

        A = random_symmetric_tensor(3, 3, rng=4)
        with pytest.raises(RetryExhausted) as info:
            repro.solve(
                A, rng=0,
                config=SolveConfig(retry=RetryPolicy(max_attempts=3)),
                kernels=KernelPair("nan", good.ax_m, ax_m1), guards=True,
                adaptive=route == "adaptive_sshopm",
                **({"alpha": 4.0} if route == "sshopm" else {}),
                **({"method": "geap"} if route == "geap" else {}),
            )
        assert info.value.attempts == 3
        starts = np.unique(np.stack(seen), axis=0)
        assert starts.shape[0] == len(seen) == 3

    def test_start_dependent_failure_recovers(self):
        """A start the kernels cannot handle fails attempt 1 only: the
        retry draws a different start from the child stream."""
        from repro.core import SolveConfig
        from repro.kernels.dispatch import KernelPair, get_kernels
        from repro.resilience import RetryOutcome, RetryPolicy

        good = get_kernels("precomputed", 3, 3)
        bad = []

        def ax_m1(tensor, x):
            x = np.asarray(x, dtype=np.float64)
            if not bad:
                bad.append(x.copy())  # the first attempt's start
            if np.array_equal(x, bad[0]):
                return np.full(3, np.nan)
            return good.ax_m1(tensor, x)

        A = random_symmetric_tensor(3, 3, rng=4)
        report = repro.solve(
            A, rng=0, alpha=4.0, tol=1e-10, max_iters=300,
            config=SolveConfig(retry=RetryPolicy(max_attempts=3)),
            kernels=KernelPair("start_dependent", good.ax_m, ax_m1),
            guards=True,
        )
        assert report.converged
        assert isinstance(report.extra, RetryOutcome)
        assert report.extra.attempts == 2

    def test_no_policy_raises(self):
        from repro.resilience.guards import SolveFailure

        A = random_symmetric_tensor(3, 3, rng=4)
        with pytest.raises(SolveFailure):
            repro.solve(A, rng=0, alpha=4.0, kernels=self.flaky_pair(3, 3),
                        guards=True)
