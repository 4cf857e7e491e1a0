"""Run ``repro serve``, optionally with the benchmark's layer wrappers.

Usage: ``python3 perfbench/serve_launch.py [--trace-out FILE] serve ...``

With ``--trace-out`` the wrappers from ``layers.py`` are installed before
the server starts, the spans of every ``JOB_SAMPLE``-th job are merged
into one recorder, and the recorder is written to FILE when the server
has drained.
"""

from __future__ import annotations

import json
import sys

JOB_SAMPLE = 5


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    tracer = None
    if trace_out:
        from layers import Tracer

        tracer = Tracer(job_sample=JOB_SAMPLE)
        tracer.install()
    from repro.cli import main as repro_main

    status = repro_main(argv)
    if tracer is not None:
        tracer.recorder.gauge("serve.queue_depth_max", tracer.queue_depth_max)
        tracer.recorder.gauge("serve.job_busy_s", tracer.job_busy_s)
        tracer.recorder.gauge("serve.jobs", tracer.jobs)
        tracer.recorder.save_trace(trace_out)
        print(json.dumps({"event": "trace_saved", "path": trace_out}),
              flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
