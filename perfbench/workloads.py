"""One workload in one process: set up, run the timed work, check, report.

``run.py`` starts this script; it is not meant to be run by hand.  Lines
on stdout that start with ``PERFBENCH `` carry JSON to the parent: a
``ready`` event when set-up is done (the parent times set-up up to it)
and a ``result`` event at the end.

The two workloads split the work across the program's layers
differently; README.md says why each was chosen.
"""

from __future__ import annotations

import argparse
import collections
import http.client
import json
import math
import os
import queue
import resource
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
from checks import CheckFailed

PREFIX = "PERFBENCH "
HERE = Path(__file__).resolve().parent
TOL = 1e-8
#: input indices for warm-up and in-process work, apart from timed passes
WARM_INDEX = 1_000_000
LOCAL_INDEX = 1_000_001
#: job status poll interval; latency comes from the server's own job
#: time, so polling only needs to be frequent enough to end the run soon
POLL_S = 0.05
#: nominal time of one batch pass on the 2-core host the benchmark was
#: built on (7-12 s there); a run does ``round(seconds / PASS_S)`` passes
PASS_S = 11.0


def emit(doc: dict) -> None:
    print(PREFIX + json.dumps(doc), flush=True)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# -- batch workloads ----------------------------------------------------------


class MriPhantom:
    """The paper's application: ADC samples of a 32x32 phantom to fiber
    directions (fit, then lockstep multistart SS-HOPM and fiber selection)."""

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.quick = quick
        self.rows = self.cols = 8 if quick else 32
        self.starts = 16 if quick else 32
        # full size scores 0.947-0.960 on seeds 0-7; the 64 voxels of the
        # quick size swing more (0.89-1.0)
        self.accuracy_floor = 0.85 if quick else 0.93
        self.unverified = 0

    def make_phantom(self):
        from repro.mri.phantom import make_phantom

        return make_phantom(rows=self.rows, cols=self.cols, num_gradients=24,
                            noise_sigma=0.01,
                            rng=self.seed % checks.PHANTOM_SEEDS)

    def setup(self) -> None:
        self.phantom = self.make_phantom()
        if not self.quick:
            checks.check_phantom(self.phantom, self.seed)
        self._solve(self.phantom.adc[:16])

    def _solve(self, adc):
        # module attributes, looked up per call, so traced runs go through
        # the wrappers
        import repro.mri.fibers
        import repro.mri.fit

        tensors = repro.mri.fit.fit_symmetric_batch(self.phantom.gradients,
                                                    adc, m=4)
        fibers = repro.mri.fibers.extract_fibers_batch(
            tensors, num_starts=self.starts, alpha=0.0, tol=TOL,
            max_iters=200, rng=self.seed)
        return tensors, fibers

    def run_pass(self, index: int) -> dict:
        t0 = time.perf_counter()
        self.out = self._solve(self.phantom.adc)
        wall = time.perf_counter() - t0
        return {"wall": wall, "tensors": self.phantom.num_voxels}

    def check_pass(self, p: dict) -> None:
        from repro.mri.metrics import evaluate_detection

        tensors, fibers = self.out
        pairs = [list(zip(f.eigenvalues, f.directions)) for f in fibers]
        good, bad, _ = checks.verify_pairs(tensors.values, 4, 3, pairs,
                                           "mri fibers", stop_tol=TOL)
        self.unverified += int(bad.sum())
        report = evaluate_detection([f.directions for f in fibers],
                                    self.phantom.true_directions)
        if report.correct_count_fraction < self.accuracy_floor:
            raise CheckFailed(
                f"fiber-count accuracy {report.correct_count_fraction:.3f} "
                f"is below the floor {self.accuracy_floor}")
        p.update(pairs=int(good.sum()),
                 failed=int(np.sum((good == 0) | (bad > 0))),
                 accuracy=report.correct_count_fraction,
                 angle=report.mean_angular_error_deg)

    def finish(self, passes, checked) -> dict:
        checks.gate_unverified(
            self.unverified, self.unverified + sum(p["pairs"] for p in checked),
            "mri fibers")
        return {
            "mri.voxels_per_s": float(np.median(
                [p["tensors"] / p["wall"] for p in passes])),
            "mri.fiber_count_accuracy": float(np.mean(
                [p["accuracy"] for p in passes])),
            "mri.angular_error_deg": float(np.mean(
                [p["angle"] for p in passes])),
        }


class SpectraM4N6:
    """Random m=4, n=6 tensors solved by every registered method through
    ``repro.solve(method=...)`` and ``result.eigenpairs()``."""

    M, N, U = 4, 6, 126

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.T, self.V = (8, 4) if quick else (256, 32)
        self.geap_T, self.geap_V = (2, 4) if quick else (4, 8)
        self.qrst_T, self.qrst_V = (2, 4) if quick else (8, 8)
        self.unverified = 0
        self.rerun_checked = False

    def setup(self) -> None:
        import repro  # noqa: F401 - imports are part of set-up

        vals, starts = checks.spectra_inputs(self.seed, WARM_INDEX, 4,
                                             self.U, 4, self.N)
        self._solve(vals, starts, warm=True)

    def _solve(self, vals, starts, warm=False):
        import repro
        from repro.symtensor import SymmetricTensorBatch

        batch = SymmetricTensorBatch(vals, self.M, self.N)
        gT, qT = (2, 2) if warm else (self.geap_T, self.qrst_T)
        out = {}
        t0 = time.perf_counter()
        rep = repro.solve(batch, starts=starts, alpha=6.0, tol=TOL,
                          max_iters=300, workers=2, executor="process")
        out["sshopm"] = (batch, rep.result, rep.result.eigenpairs(), 6.0)
        t1 = time.perf_counter()
        sub = batch.subset(np.arange(gT))
        rep = repro.solve(sub, starts=starts[:self.geap_V], tol=TOL,
                          max_iters=300, method="geap")
        shift = float(np.nanmax(np.abs(rep.result.shifts)))
        out["geap"] = (sub, rep.result, rep.result.eigenpairs(), shift)
        t2 = time.perf_counter()
        sub = batch.subset(np.arange(qT))
        rep = repro.solve(sub, starts=self.qrst_V, tol=TOL, max_iters=300,
                          method="qrst", rng=self.seed)
        out["qrst"] = (sub, rep.result, rep.result.eigenpairs(), None)
        t3 = time.perf_counter()
        return out, {"sshopm": t1 - t0, "geap": t2 - t1, "qrst": t3 - t2}

    def run_pass(self, index: int) -> dict:
        vals, starts = checks.spectra_inputs(self.seed, index, self.T,
                                             self.U, self.V, self.N)
        self.out, walls = self._solve(vals, starts)
        return {"wall": sum(walls.values()), "parts": walls,
                "tensors": self.T + self.geap_T + self.qrst_T}

    def check_pass(self, p: dict) -> None:
        p["pairs"] = p["failed"] = 0
        for part, (batch, result, pairs, shift) in self.out.items():
            listed = [[(e.eigenvalue, e.eigenvector) for e in ps]
                      for ps in pairs]
            good, bad, _ = checks.verify_pairs(
                batch.values, self.M, self.N, listed, f"spectra {part}",
                stop_tol=None if part == "qrst" else TOL, shift=shift or 0.0)
            self.unverified += int(bad.sum())
            failed = (np.asarray(result.failed).any(axis=1) | (good == 0)
                      | (bad > 0))
            p["pairs"] += int(good.sum())
            p["failed"] += int(failed.sum())
        if not self.rerun_checked:
            self.rerun_checked = True
            batch, result = self.out["qrst"][:2]
            import repro

            again = repro.solve(batch, starts=self.qrst_V, tol=TOL,
                                max_iters=300, method="qrst",
                                rng=self.seed).result
            if not np.array_equal(again.eigenvalues, result.eigenvalues,
                                  equal_nan=True):
                raise CheckFailed("QRST rerun on the same inputs returned "
                                  "different eigenvalues")

    def finish(self, passes, checked) -> dict:
        checks.gate_unverified(
            self.unverified, self.unverified + sum(p["pairs"] for p in checked),
            "spectra")
        sizes = {"sshopm": self.T, "geap": self.geap_T, "qrst": self.qrst_T}

        def rate(part):
            return float(np.median([sizes[part] / p["parts"][part]
                                    for p in passes]))

        return {
            "spectra.sshopm_tensors_per_s": rate("sshopm"),
            "spectra.geap_tensors_per_s": rate("geap"),
            "spectra.qrst_tensors_per_s": rate("qrst"),
            "spectra.pairs_found": float(np.mean([p["pairs"] for p in passes])),
        }


class Batch:
    """The batch user: one phantom pass, then one spectra pass, on the
    same pass index.  One workload holds both so that each run is long
    enough to average over the host's slow spells (see README.md)."""

    def __init__(self, seed: int, quick: bool):
        self.parts = {"mri": MriPhantom(seed, quick),
                      "spectra": SpectraM4N6(seed, quick)}

    def setup(self) -> None:
        for work in self.parts.values():
            work.setup()

    def run_pass(self, index: int) -> dict:
        p = {name: work.run_pass(index) for name, work in self.parts.items()}
        p["wall"] = sum(p[name]["wall"] for name in self.parts)
        p["tensors"] = sum(p[name]["tensors"] for name in self.parts)
        return p

    def check_pass(self, p: dict) -> None:
        for name, work in self.parts.items():
            # each part checks the outputs its own last run_pass left
            work.check_pass(p[name])
        p["pairs"] = sum(p[name]["pairs"] for name in self.parts)
        p["failed"] = sum(p[name]["failed"] for name in self.parts)

    def finish(self, passes, checked) -> dict:
        figures = {}
        for name, work in self.parts.items():
            figures.update(work.finish([p[name] for p in passes],
                                       [p[name] for p in checked]))
        return figures


def run_batch(work, seconds: float, tracer) -> dict:
    """``seconds / PASS_S`` passes, every pass checked.

    The pass count comes from ``seconds`` and the nominal pass time, not
    from a clock, so every run of one seed solves the same inputs and
    attempts and fails the same operations however fast the host is.

    In traced mode each of half as many inputs runs twice, untraced then
    traced: the untraced passes give the workload figures, the traced ones
    the layer figures, and each pair on the same input the tracing
    overhead.
    """
    count = max(1, round(seconds / PASS_S))
    if tracer is not None:
        count = max(1, count // 2)
    plain, traced = [], []
    for index in range(count):
        p = work.run_pass(index)
        work.check_pass(p)
        plain.append(p)
        if tracer is not None:
            with tracer.recorder.activate():
                p = work.run_pass(index)
            work.check_pass(p)
            traced.append(p)
    checked = plain + traced
    walls = [p["wall"] for p in plain]
    metrics = {
        "tensors_per_s": float(np.median([p["tensors"] / p["wall"]
                                          for p in plain])),
        "latency_p50_ms": 1e3 * percentile(walls, 50),
        "pairs_per_tensor": (sum(p["pairs"] for p in checked)
                             / sum(p["tensors"] for p in checked)),
        "attempted": sum(p["tensors"] for p in checked),
        "failed": sum(p["failed"] for p in checked),
    }
    metrics.update(work.finish(plain, checked))
    if tracer is not None:
        from layers import layer_metrics

        metrics.update(layer_metrics(tracer.recorder.root,
                                     sum(p["wall"] for p in traced),
                                     len(traced)))
        metrics["instrument.trace_overhead_frac"] = float(np.median(
            [t["wall"] / u["wall"] for u, t in zip(plain, traced)])) - 1.0
    return metrics


# -- the service workload -----------------------------------------------------


class ServeOpen:
    """``repro serve`` under an open-loop Poisson load of small jobs."""

    M, N, U = 4, 4, 35
    RATE = 5.0
    SLO_MS = 500.0
    RUNNERS = 2
    SPEC = {"num_starts": 8, "alpha": 4.0, "tol": TOL, "max_iters": 200,
            "chunk": 8}

    def __init__(self, seed: int, tmp: Path, traced: bool):
        self.seed = seed
        self.tmp = tmp
        self.traced = traced
        self.tensors = 16
        self.proc = None

    def doc(self, index: int) -> dict:
        values = checks.serve_payload(self.seed, index, self.tensors, self.U)
        return {"tensors": {"kind": "values", "values": values.tolist(),
                            "m": self.M, "n": self.N},
                "seed": index & 0x7FFFFFFF, **self.SPEC}

    def setup(self) -> None:
        cmd = [sys.executable, str(HERE / "serve_launch.py")]
        if self.traced:
            self.trace_file = self.tmp / "server.trace.json"
            cmd += ["--trace-out", str(self.trace_file)]
        cmd += ["serve", "--port", "0", "--checkpoint-dir",
                str(self.tmp / "ckpt")]
        self.log = open(self.tmp / "server.log", "wb")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self.log)
        line = self.proc.stdout.readline()
        try:
            ready = json.loads(line)
        except json.JSONDecodeError:
            raise RuntimeError(f"server did not start: {line!r}") from None
        self.port = ready["port"]
        # keep the pipe drained so the server never blocks on it
        self.reader = threading.Thread(
            target=collections.deque, args=(self.proc.stdout, 0),
            daemon=True)
        self.reader.start()
        code, doc = self.request("POST", "/solve?wait=1",
                                 self.doc(WARM_INDEX))
        if code != 200 or doc.get("status") != "done":
            raise RuntimeError(f"warm request failed: {code} {doc}")

    def connect(self) -> http.client.HTTPConnection:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        conn.connect()
        # the client sends headers and body in two writes; without this,
        # Nagle's algorithm holds the body for the server's delayed ACK
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def request(self, method, path, body=None, conn=None):
        own = conn is None
        conn = conn or self.connect()
        try:
            data = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} if data else {}
            conn.request(method, path, body=data, headers=headers)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            if own:
                conn.close()

    def stop(self) -> float:
        """Drain the server and reap it; returns its peak RSS in MB."""
        proc, self.proc = self.proc, None
        if proc is None:
            return 0.0
        proc.send_signal(signal.SIGTERM)
        usage = None
        deadline = time.monotonic() + 30
        while usage is None:
            pid, _, ru = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                usage = ru
            elif time.monotonic() > deadline:
                proc.kill()
                deadline = math.inf
            else:
                time.sleep(0.05)
        proc.returncode = 0
        if hasattr(self, "reader"):
            self.reader.join(timeout=10)
        proc.stdout.close()
        self.log.close()
        return usage.ru_maxrss / 1024.0

    def run(self, seconds: float) -> dict:
        count = max(4, int(round(self.RATE * seconds)))
        due = checks.serve_schedule(self.seed, count, self.RATE)
        docs = [json.dumps(self.doc(i)).encode() for i in range(count)]
        sent: dict[int, dict] = {}
        pending: queue.Queue = queue.Queue()
        results: dict[int, dict] = {}
        start = time.perf_counter() + 0.05

        def submitter():
            conn = self.connect()
            for i in range(count):
                delay = start + due[i] - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                t_send = time.perf_counter()
                conn.request("POST", "/solve", body=docs[i],
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                body = json.loads(resp.read())
                rtt = time.perf_counter() - t_send
                sent[i] = {"late": t_send - (start + due[i]), "rtt": rtt,
                           "code": resp.status}
                if resp.status == 202:
                    pending.put((i, body["job"]))
                else:
                    results[i] = {"status": f"http-{resp.status}"}
            conn.close()
            pending.put(None)

        def poller():
            conn = self.connect()
            live: dict[int, str] = {}
            closed = False
            while not closed or live:
                try:
                    while True:
                        item = pending.get(timeout=POLL_S if not live else 0)
                        if item is None:
                            closed = True
                            break
                        live[item[0]] = item[1]
                except queue.Empty:
                    pass
                for i, job in list(live.items()):
                    code, doc = self.request("GET", f"/jobs/{job}", conn=conn)
                    if code == 200 and doc["status"] in (
                            "done", "failed", "deadline", "interrupted"):
                        results[i] = doc
                        del live[i]
                if live:
                    time.sleep(POLL_S)
            conn.close()

        threads = [threading.Thread(target=submitter),
                   threading.Thread(target=poller)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=count / self.RATE + 120)
        if any(t.is_alive() for t in threads):
            raise RuntimeError("load generator did not finish")

        latencies, finish_at = [], []
        pairs = failed = slo_ok = degraded = deadline = 0
        verified = unverified = 0
        for i in range(count):
            doc = results.get(i, {})
            if doc.get("status") != "done":
                failed += 1
                deadline += doc.get("status") == "deadline"
                continue
            degraded += bool(doc.get("degraded"))
            s = sent[i]
            latency = s["late"] + s["rtt"] / 2 + doc["seconds"]
            latencies.append(latency)
            finish_at.append(due[i] + latency)
            good, bad, distinct = self.check_result(i, doc["result"])
            verified += good
            unverified += bad
            pairs += distinct
            if bad:
                failed += 1
            else:
                slo_ok += latency * 1e3 <= self.SLO_MS
        checks.gate_unverified(unverified, verified + unverified, "serve")
        if not latencies:
            raise CheckFailed("no request completed")
        span = max(finish_at) - due[0]
        lat_ms = np.asarray(latencies) * 1e3
        metrics = {
            "tensors_per_s": len(latencies) * self.tensors / span,
            "latency_p50_ms": percentile(lat_ms, 50),
            "pairs_per_tensor": pairs / (len(latencies) * self.tensors),
            "serve.latency_p50_ms": percentile(lat_ms, 50),
            "serve.latency_p95_ms": percentile(lat_ms, 95),
            "serve.slo_ok_frac": slo_ok / count,
            "serve.submit_rtt_ms": 1e3 * percentile(
                [s["rtt"] for s in sent.values()], 50),
            "serve.rejected": sum(s["code"] == 429 for s in sent.values()),
            "serve.degraded": degraded,
            "serve.deadline": deadline,
            "gen.lateness_p95_ms": 1e3 * percentile(
                [s["late"] for s in sent.values()], 95),
            "attempted": count, "failed": failed,
            "_span_s": span,
        }
        return metrics

    def check_result(self, index: int, result: dict):
        """Verify a result document: ``(verified lanes, unverified lanes,
        distinct verified pairs)``."""
        values = checks.serve_payload(self.seed, index, self.tensors, self.U)
        lam = np.asarray(result["eigenvalues"], dtype=np.float64)
        vec = np.asarray(result["eigenvectors"], dtype=np.float64)
        ok = (np.asarray(result["converged"], dtype=bool)
              & ~np.asarray(result["failed"], dtype=bool))
        if sorted(result["tensors_solved"]) != list(range(self.tensors)):
            raise CheckFailed(f"request {index}: not every tensor was solved")
        lanes = [list(zip(lam[t][ok[t]], vec[t][ok[t]]))
                 for t in range(self.tensors)]
        good, bad, verified = checks.verify_pairs(
            values, self.M, self.N, lanes, f"serve request {index}",
            stop_tol=TOL, shift=self.SPEC["alpha"])
        distinct = 0
        for t, pairs in enumerate(lanes):
            keep = [p for p, v in zip(pairs, verified[t]) if v]
            distinct += checks.dedupe_count([p[0] for p in keep],
                                            [p[1] for p in keep], self.M)
        return int(good.sum()), int(bad.sum()), distinct

    def trace_overhead(self, reps: int) -> float:
        """Tracing overhead on one job run in this process: median traced
        run against median untraced run of the same job."""
        import repro.serve.jobs as jobs
        from layers import Tracer

        spec = jobs.JobSpec.from_doc(self.doc(LOCAL_INDEX))
        ckpt = self.tmp / "ckpt-local"
        ckpt.mkdir(exist_ok=True)

        def once():
            job = jobs.Job(f"local{time.perf_counter_ns()}", spec)
            t0 = time.perf_counter()
            jobs.run_job(job, ckpt_dir=ckpt)
            return time.perf_counter() - t0

        once()
        plain = [once() for _ in range(reps)]
        Tracer().install()
        traced = [once() for _ in range(reps)]
        return float(np.median(traced) / np.median(plain) - 1.0)


# -- host calibration and run metadata ------------------------------------------


def llc_bytes() -> int:
    """Largest cache size ``lscpu`` reports (0 if it cannot be read)."""
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True,
                             timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        return 0
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    best = 0
    for line in out.splitlines():
        key, _, val = line.partition(":")
        if "cache" not in key or not val.split():
            continue
        num, unit = val.split()[:2]
        try:
            best = max(best, int(float(num) * units.get(unit[0], 1)))
        except ValueError:
            continue
    return best


def calibrate() -> dict:
    """numpy GEMM GFLOP/s and stream-copy GB/s on this host, now."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((512, 512))
    b = rng.standard_normal((512, 512))
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    gemm = 2 * 512 ** 3 / float(np.median(times)) / 1e9
    llc = llc_bytes()
    cap = 128 << 20
    size = min(max(4 * llc, 32 << 20), cap)
    src = np.ones(size // 8)
    dst = np.empty_like(src)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    stream = 2 * src.nbytes / float(np.median(times)) / 1e9
    return {"gemm_gflops": gemm, "stream_gbs": stream, "llc_bytes": llc,
            "stream_array_bytes": src.nbytes,
            "stream_covers_4x_llc": src.nbytes >= 4 * llc}


def run_meta(root: Path) -> dict:
    import platform

    commit = "unknown"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    if commit in ("", "unknown"):
        import hashlib

        h = hashlib.sha256()
        for path in sorted((root / "src").rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
        commit = "src-sha256:" + h.hexdigest()[:16]
    cpu = platform.processor() or "unknown"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "commit": commit, "cpu": cpu, "nproc": os.cpu_count(),
        "numpy": np.__version__, "numba": has_numba,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
    }


# -- entry point ----------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--root", required=True)
    args = ap.parse_args()
    tmp = Path(args.tmp)
    traced = bool(args.trace)

    tracer = None
    if args.workload == "serve_open":
        work = ServeOpen(args.seed, tmp, traced)
    elif args.workload == "batch":
        if traced:
            from layers import Tracer

            tracer = Tracer()
            tracer.install()
        work = Batch(args.seed, args.quick)
    else:
        raise SystemExit(f"unknown workload {args.workload!r}")

    serve = isinstance(work, ServeOpen)
    try:
        work.setup()
        emit({"event": "ready"})
        if args.setup_only:
            return 0
        if serve:
            metrics = work.run(args.seconds)
            rss = work.stop()
            if traced:
                layer, trace_rec = serve_layers(
                    work, metrics.pop("_span_s"), args.quick)
                metrics.update(layer)
            metrics.pop("_span_s", None)
        else:
            metrics = run_batch(work, args.seconds, tracer)
            rss = peak_rss_mb()
            trace_rec = tracer.recorder if tracer is not None else None
    except CheckFailed as exc:
        emit({"event": "result", "correct": False, "error": str(exc)})
        return 1
    finally:
        if serve:
            work.stop()

    attempted = int(metrics.pop("attempted"))
    failed = int(metrics.pop("failed"))
    metrics["ok_frac"] = (attempted - failed) / attempted
    metrics["failed_frac"] = failed / attempted
    metrics["peak_rss_mb"] = rss
    meta = run_meta(Path(args.root))
    meta.update(workload=args.workload, seed=args.seed, traced=traced,
                seconds=args.seconds)
    if traced:
        cal = calibrate()
        metrics["host.gemm_gflops"] = cal["gemm_gflops"]
        metrics["host.stream_gbs"] = cal["stream_gbs"]
        meta["calibration"] = cal
        intensity = metrics.get("kernels.plan.flops_per_byte", 0.0)
        if cal["stream_covers_4x_llc"] and intensity:
            bound = min(cal["gemm_gflops"], cal["stream_gbs"] * intensity)
            meta["kernels.plan.roofline_frac"] = (
                metrics["kernels.plan.gflops"] / bound)
        trace_rec.meta.update(meta)
        for key, value in sorted(metrics.items()):
            trace_rec.gauge(key, value)
        out = Path(args.root) / ".bench_out" / (
            f"{args.workload}-seed{args.seed}.trace.json")
        trace_rec.save_trace(out)
        meta["trace_file"] = str(out.relative_to(args.root))
    emit({"event": "result", "correct": True, "attempted": attempted,
          "failed": failed, "metrics": metrics, "meta": meta})
    return 0


def serve_layers(work: ServeOpen, span_s: float, quick: bool):
    """Per-layer figures of a traced serve run and the server's recorder:
    the server's trace per traced job, plus the tracing overhead measured
    on one job in this process."""
    from layers import layer_metrics, serve_job_metrics
    from repro.instrument import load_trace

    server = load_trace(work.trace_file)
    jobs = server.root.children.get("serve.run_job")
    n_jobs = jobs.count if jobs is not None else 0
    metrics = layer_metrics(server.root, jobs.seconds if jobs else 0.0,
                            n_jobs)
    metrics.update(serve_job_metrics(server.root, server.gauges,
                                     work.RUNNERS, span_s))
    metrics["instrument.trace_overhead_frac"] = work.trace_overhead(
        3 if quick else 5)
    return metrics, server


if __name__ == "__main__":
    sys.exit(main())
