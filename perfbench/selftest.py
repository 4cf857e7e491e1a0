"""The benchmark's own tests; run from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload at a tiny size through the same code path as a real
run (``run.py --quick``), untraced and traced, and asserts that

* the printed metric names and units are exactly those of BENCHMARK.json;
* the output checks trip on a corrupted eigenvector and on a changed
  phantom fingerprint;
* traced mode reports the per-layer metrics each workload exercises.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

#: per-layer metrics that must be nonzero on each workload's traced run
EXERCISED = {
    "batch": [
        "kernels.dispatch.calls", "kernels.dispatch.flops",
        "core.multistart.busy_s", "core.multistart.useful_frac",
        "core.dedupe.calls", "core.classify.calls", "mri.fit_s",
        "mri.select_s", "mri.voxels_per_s", "mri.fiber_count_accuracy",
        "kernels.plan.calls", "kernels.plan.gflops",
        "kernels.plan.flops_per_byte", "kernels.compressed.calls",
        "engine.sweeps", "engine.useful_frac", "core.refine.steps",
        "solvers.geap.shift_calls", "solvers.qrst.sweeps", "parallel.busy_s",
        "parallel.shm_bytes", "spectra.sshopm_tensors_per_s",
        "spectra.geap_tensors_per_s", "spectra.qrst_tensors_per_s",
        "spectra.pairs_found"],
    "serve_open": [
        "kernels.plan.calls", "engine.sweeps", "parallel.busy_s",
        "serve.submit_rtt_ms", "serve.run_job_ms", "serve.runner_busy_frac",
        "serve.queue_depth_max", "resilience.checkpoint.writes",
        "resilience.checkpoint.bytes", "serve.latency_p95_ms",
        "gen.lateness_p95_ms"],
}
ALWAYS = ["host.gemm_gflops", "host.stream_gbs"]


def run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_metrics(spec: dict) -> None:
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            doc = run(w["name"], trace)
            assert set(doc) == {"correct", "attempted", "failed", "metrics"}
            assert doc["correct"] is True and doc["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in doc["metrics"].items()}
            assert got == want, (w["name"], trace, set(got) ^ set(want))
            if trace:
                zero = [k for k in EXERCISED[w["name"]] + ALWAYS
                        if not doc["metrics"][k]["value"]]
                assert not zero, (w["name"], zero)
            else:
                assert all(v["value"] > 0 for v in doc["metrics"].values())
            print(f"ok  {w['name']} trace={trace}")


def test_checks_trip() -> None:
    rng = np.random.default_rng(0)
    d = checks.unit_rows(rng, 1, 4)[0]
    # the rank-one tensor d^(x)4 has the exact eigenpair (1, d)
    values = np.array([[np.prod(d[list(c)]) for c in
                        itertools.combinations_with_replacement(range(4), 4)]])
    good, bad, _ = checks.verify_pairs(values, 4, 4, [[(1.0, d)]], "exact")
    assert (good.sum(), bad.sum()) == (1, 0)
    checks.gate_unverified(0, 1, "exact")
    for stop_tol, bend in ((None, 1e-3), (1e-8, 5e-2)):
        bent = d + bend * checks.unit_rows(rng, 1, 4)[0]
        good, bad, _ = checks.verify_pairs(
            values, 4, 4, [[(1.0, bent / np.linalg.norm(bent))]],
            "corrupted", stop_tol=stop_tol)
        assert (good.sum(), bad.sum()) == (0, 1)
        try:
            checks.gate_unverified(int(bad.sum()), 1, "corrupted")
        except checks.CheckFailed:
            continue
        raise AssertionError("residual check passed a corrupted eigenvector")
    print("ok  residual check trips on a corrupted eigenvector")

    from workloads import MriPhantom

    phantom = MriPhantom(5, quick=False).make_phantom()
    checks.check_phantom(phantom, 5)
    phantom.adc[0, 0] += 1e-6
    try:
        checks.check_phantom(phantom, 5)
    except checks.CheckFailed:
        print("ok  input check trips on a changed phantom")
        return
    raise AssertionError("phantom fingerprint check passed changed inputs")


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    test_checks_trip()
    test_metrics(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
