"""Tests for the bounded convergence telemetry stream
(repro.instrument.telemetry): stride decimation, serialization, the
enabled/disabled gating rule, and attachment to solver results and
recorder traces."""

import math

import numpy as np
import pytest

from repro.core import adaptive_sshopm, sshopm
from repro.core.multistart import multistart_sshopm
from repro.instrument import Recorder, load_trace, recording
from repro.instrument.telemetry import (
    COLUMNS,
    TELEMETRY_SCHEMA,
    ConvergenceTelemetry,
    telemetry_enabled,
)
from repro.symtensor import random_symmetric_tensor
from repro.symtensor.random import random_symmetric_batch


class TestBoundedStream:
    def test_records_every_iteration_until_cap(self):
        tel = ConvergenceTelemetry("t", maxlen=16)
        for k in range(10):
            tel.append(k, float(k))
        assert len(tel) == 10
        assert tel.stride == 1
        assert tel.column("k") == list(range(10))

    def test_decimation_bounds_memory(self):
        tel = ConvergenceTelemetry("t", maxlen=16)
        for k in range(10_000):
            tel.append(k, float(k))
        assert len(tel) <= 16
        assert tel.stride > 1
        ks = tel.column("k")
        assert ks == sorted(ks)
        # coverage spans the whole run, not just a prefix
        assert ks[-1] > 9_000

    def test_force_appends_final_iterate(self):
        tel = ConvergenceTelemetry("t", maxlen=16)
        for k in range(100):
            tel.append(k, float(k))
        tel.append(101, 41.5, force=True)  # off-stride but forced
        assert tel.column("k")[-1] == 101
        assert tel.column("lam")[-1] == 41.5

    def test_maxlen_floor(self):
        with pytest.raises(ValueError):
            ConvergenceTelemetry("t", maxlen=4)

    def test_roundtrip(self):
        tel = ConvergenceTelemetry("t", maxlen=32, meta={"m": 4})
        for k in range(50):
            tel.append(k, float(k), residual=1.0 / (k + 1), shift=2.0,
                       step_norm=0.1, active=5)
        data = tel.to_dict()
        assert data["schema"] == TELEMETRY_SCHEMA
        assert data["columns"] == list(COLUMNS)
        back = ConvergenceTelemetry.from_dict(data)
        assert back.to_dict() == data
        assert back.stride == tel.stride
        assert back.meta == {"m": 4}

    def test_from_dict_rejects_unknown_schema(self):
        with pytest.raises(ValueError):
            ConvergenceTelemetry.from_dict({"schema": "repro-telemetry/99",
                                            "name": "x"})

    def test_arrays_and_records(self):
        tel = ConvergenceTelemetry("t")
        tel.append(0, 1.0, residual=0.5)
        arrays = tel.arrays()
        assert set(arrays) == set(COLUMNS)
        assert arrays["lam"][0] == 1.0
        assert tel.records[0]["residual"] == 0.5


class TestGating:
    def test_explicit_flag_wins(self):
        rec = Recorder()
        assert telemetry_enabled(True, None) is True
        assert telemetry_enabled(False, rec) is False

    def test_none_follows_recorder(self):
        assert telemetry_enabled(None, None) is False
        assert telemetry_enabled(None, Recorder()) is True


class TestSolverAttachment:
    @pytest.fixture
    def tensor(self):
        return random_symmetric_tensor(3, 4, rng=0)

    def test_sshopm_off_by_default(self, tensor):
        res = sshopm(tensor, alpha=2.0, max_iters=100, rng=1)
        assert res.telemetry is None

    def test_sshopm_explicit_on(self, tensor):
        res = sshopm(tensor, alpha=2.0, max_iters=100, rng=1, telemetry=True)
        tel = res.telemetry
        assert tel is not None and len(tel) >= 2
        assert tel.name == "sshopm"
        # lambda column matches lambda_history (modulo decimation)
        ks = [int(k) for k in tel.column("k")]
        lams = tel.column("lam")
        for k, lam in zip(ks[:-1], lams[:-1]):
            assert lam == pytest.approx(res.lambda_history[k])
        # final forced record carries the result state
        assert lams[-1] == pytest.approx(res.eigenvalue)
        assert tel.column("residual")[-1] == pytest.approx(res.residual)
        assert tel.column("shift")[-1] == 2.0

    def test_recorder_enables_and_attaches(self, tensor):
        with recording() as rec:
            res = sshopm(tensor, alpha=2.0, max_iters=100, rng=1)
        assert res.telemetry is not None
        assert [t.name for t in rec.telemetry] == ["sshopm"]

    def test_adaptive_records_per_step_shift(self, tensor):
        res = adaptive_sshopm(tensor, rng=2, max_iters=100, telemetry=True)
        tel = res.telemetry
        assert tel.name == "adaptive_sshopm"
        shifts = tel.column("shift")[:-1]
        assert shifts and all(s >= 0.0 for s in shifts)  # mode="max" shifts

    def test_multistart_aggregate_stream(self):
        batch = random_symmetric_batch(3, 3, 4, rng=3)
        res = multistart_sshopm(batch, num_starts=6, alpha=1.0, max_iters=80,
                                rng=4, telemetry=True)
        tel = res.telemetry
        assert tel.name == "multistart_sshopm"
        assert tel.meta["tensors"] == 3 and tel.meta["starts"] == 6
        active = tel.column("active")
        assert active[0] == 18  # every pair active on sweep 1
        assert active == sorted(active, reverse=True)  # only ever freezes

    def test_trace_roundtrip_carries_telemetry(self, tensor, tmp_path):
        with recording() as rec:
            sshopm(tensor, alpha=2.0, max_iters=100, rng=1)
        path = tmp_path / "t.json"
        rec.save_trace(path)
        back = load_trace(path)
        assert len(back.telemetry) == 1
        # nan-aware equality (the final forced row has step_norm=nan)
        np.testing.assert_equal(back.telemetry[0].to_dict(),
                                rec.telemetry[0].to_dict())

    def test_worker_streams_namespaced_on_absorb(self):
        from repro.parallel import parallel_fleet_solve

        batch = random_symmetric_batch(4, 3, 4, rng=5)
        with recording() as rec:
            parallel_fleet_solve(batch, workers=2, num_starts=4, alpha=1.0,
                                 max_iters=40, executor="thread")
        names = sorted(t.name for t in rec.telemetry)
        assert names == ["worker0.fleet_solve", "worker1.fleet_solve"]

    def test_nan_columns_serialize(self):
        tel = ConvergenceTelemetry("t")
        tel.append(0, 1.0)  # residual/shift/step default to nan
        row = tel.records[0]
        assert math.isnan(row["residual"]) and math.isnan(row["step_norm"])
