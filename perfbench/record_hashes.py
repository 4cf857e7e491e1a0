"""Record the phantom fingerprints that the phantom pass checks its inputs
against (``phantom_hashes.json``).

    PYTHONPATH=src python3 perfbench/record_hashes.py

Run it only when the phantom generator is meant to change: the file pins
the workload's inputs, so a change that alters them shows up as a failed
check instead of a moved benchmark.
"""

from __future__ import annotations

import json
import sys

import checks
from workloads import MriPhantom


def main() -> int:
    hashes = [
        checks.phantom_fingerprint(MriPhantom(seed, quick=False).make_phantom())
        for seed in range(checks.PHANTOM_SEEDS)
    ]
    checks.HASH_FILE.write_text(json.dumps(
        {"generator": "repro.mri.phantom.make_phantom(rows=32, cols=32, "
                      "num_gradients=24, noise_sigma=0.01, rng=seed)",
         "hashes": hashes}, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
