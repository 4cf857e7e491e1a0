"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload batch --seed 1 --seconds 45 --trace 0

Run it from the root of a checkout: it imports the program from ``src/``
there and fails if that is missing.  ``--trace 0`` prints the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` runs the same workload with
the per-layer wrappers and prints the per-layer metrics, and leaves a
trace in ``.bench_out/`` that ``repro report`` renders.  ``--quick`` runs
a tiny size through the same code (``selftest.py`` uses it).

Set-up is timed in separate processes: a few set-up-only processes and
the measured one, each from process start to its ready line, and the
median is reported as ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import PREFIX

HERE = Path(__file__).resolve().parent
SETUP_TRIALS = 2
RUN_TIMEOUT_S = 170.0


def fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def child_env(root: Path, tmp: Path, tag: str) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # one BLAS thread per process: the program's own workers use the cores
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    plans = tmp / f"plans-{tag}"
    plans.mkdir(parents=True, exist_ok=True)
    env["REPRO_PLAN_CACHE_DIR"] = str(plans)
    return env


def run_child(args, root: Path, tmp: Path, tag: str, setup_only: bool,
              deadline: float):
    """Start one workload process; returns ``(setup_s, result_or_None)``."""
    work = tmp / tag
    work.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", str(work), "--root", str(root)]
    if args.quick:
        cmd.append("--quick")
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    # its own process group, so a timeout also stops the server and the
    # process-tier workers it started
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env(root, tmp, tag), cwd=root,
                            start_new_session=True)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()),
                               os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    setup_s = None
    result = None
    try:
        for line in proc.stdout:
            if not line.startswith(PREFIX):
                continue
            doc = json.loads(line[len(PREFIX):])
            if doc.get("event") == "ready" and setup_s is None:
                setup_s = time.perf_counter() - t0
            elif doc.get("event") == "result":
                result = doc
        proc.wait()
    finally:
        watchdog.cancel()
        try:  # anything of the group still running is a leftover
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        proc.stdout.close()
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"workload process {tag} exited with "
                           f"{proc.returncode}")
    if setup_s is None:
        raise RuntimeError(f"workload process {tag} never became ready")
    return setup_s, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny sizes through the same code path")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no program source at {root / 'src' / 'repro'}; run "
                    "from the root of a checkout")
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    out = root / ".bench_out"
    tmp = out / f"tmp-{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for k in range(1 if args.quick else SETUP_TRIALS):
            setup_s, _ = run_child(args, root, tmp, f"setup{k}", True,
                                   deadline)
            setups.append(setup_s)
        setup_s, result = run_child(args, root, tmp, "run", False, deadline)
        setups.append(setup_s)
    except RuntimeError as exc:
        return fail(str(exc), 1)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if result is None:
        return fail("workload process gave no result", 1)
    if not result["correct"]:
        print(json.dumps({"correct": False, "attempted": 0, "failed": 0,
                          "metrics": {}}))
        return fail(f"output check failed: {result.get('error')}", 1)

    values = dict(result["metrics"])
    values["setup_s"] = statistics.median(setups)
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]],
                                  "unit": m["unit"]}
        elif args.trace:
            # a layer this workload does not use did no work
            metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}
        else:
            return fail(f"workload did not measure {m['name']}", 1)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "setup_samples_s": setups, "meta": result["meta"],
              "metrics": values}
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.run.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
