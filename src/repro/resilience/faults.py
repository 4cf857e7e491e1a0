"""Deterministic fault injection for chaos-testing the solve pipeline.

Resilience claims are only as good as the failure paths actually
exercised.  :class:`FaultPlan` schedules four seeded, reproducible
degradations against a sweep:

* **NaN kernel payloads** — a kernel application returns NaN for chosen
  (start, attempt) pairs, exactly what an out-of-range shift or a device
  memory fault produces; the numerical guards must catch it.
* **worker crashes** — a task raises :class:`InjectedWorkerCrash` the
  first ``k`` times it is scheduled; the resilient runner must requeue
  the work on a surviving worker.
* **corrupted tensor entries** — seeded NaN corruption of a start's view
  of the tensor (all attempts — an unrecoverable input fault); the sweep
  must report the start as failed instead of poisoning the rest.
* **slow tasks** — an injected sleep, for exercising timeout guards.

Everything is keyed by explicit indices plus the plan's seed, so a chaos
test runs the same way every time (``tests/test_chaos.py`` pins the seed
via ``REPRO_CHAOS_SEED``).
"""

from __future__ import annotations

import threading
import time
from typing import Mapping

import numpy as np

from repro.kernels.dispatch import KernelPair
from repro.symtensor.storage import SymmetricTensor
from repro.util.rng import spawn_rng

__all__ = [
    "FaultPlan",
    "InjectedFault",
    "InjectedWorkerCrash",
    "corrupt_tensor",
    "nan_injecting_pair",
]


class InjectedFault(RuntimeError):
    """Base class for harness-injected failures."""


class InjectedWorkerCrash(InjectedFault):
    """A forced worker-task exception (simulates a died/killed worker)."""


def corrupt_tensor(tensor: SymmetricTensor, entries: int,
                   rng: np.random.Generator) -> SymmetricTensor:
    """A copy of ``tensor`` with ``entries`` seeded unique values replaced
    by NaN (an input-data fault: bad load, bit rot, upstream bug)."""
    bad = tensor.copy()
    count = min(int(entries), bad.num_unique)
    idx = rng.choice(bad.num_unique, size=count, replace=False)
    bad.values[idx] = np.nan
    return bad


def nan_injecting_pair(pair: KernelPair) -> KernelPair:
    """A kernel pair whose every application returns NaN payloads of the
    correct shape — the guard layer must convert this into a structured
    failure, never a silent garbage result."""

    def ax_m(tensor, x):
        pair.ax_m(tensor, x)  # keep the real cost; discard the value
        return float("nan")

    def ax_m1(tensor, x):
        y = np.asarray(pair.ax_m1(tensor, x))
        return np.full_like(y, np.nan)

    return KernelPair(name=f"{pair.name}+nan", ax_m=ax_m, ax_m1=ax_m1)


class FaultPlan:
    """A seeded schedule of failures for one sweep.

    Parameters
    ----------
    seed : root seed for every random choice the plan makes (which tensor
        entries to corrupt), so runs are reproducible.
    nan_kernel : mapping ``start -> iterable of attempt indices`` whose
        kernel outputs are replaced by NaN (e.g. ``{3: (0,)}`` breaks
        start 3's first attempt only — the retry must recover it).
    crashes : mapping ``start -> number of executions to kill`` (each
        scheduled execution raises :class:`InjectedWorkerCrash` until the
        budget is spent — the requeue path must recover it).
    corrupt : mapping ``start -> number of tensor entries to NaN`` for
        that start's view of the tensor, every attempt (unrecoverable).
    slow : mapping ``start -> seconds`` of injected sleep per execution.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        nan_kernel: Mapping[int, object] | None = None,
        crashes: Mapping[int, int] | None = None,
        corrupt: Mapping[int, int] | None = None,
        slow: Mapping[int, float] | None = None,
    ):
        self.seed = int(seed)
        self.nan_kernel = {
            int(s): frozenset(int(a) for a in attempts)
            for s, attempts in (nan_kernel or {}).items()
        }
        self.crashes = {int(s): int(k) for s, k in (crashes or {}).items()}
        self.corrupt = {int(s): int(k) for s, k in (corrupt or {}).items()}
        self.slow = {int(s): float(sec) for s, sec in (slow or {}).items()}
        self._crash_counts: dict[int, int] = {}
        self._lock = threading.Lock()

    # -- hooks the runner and the batch solvers call -------------------------

    def on_task_start(self, start: int) -> None:
        """Called once per scheduled execution of ``start``: applies the
        slow-task delay, then the crash budget (thread-safe)."""
        delay = self.slow.get(start, 0.0)
        if delay > 0:
            time.sleep(delay)
        budget = self.crashes.get(start, 0)
        if budget:
            with self._lock:
                used = self._crash_counts.get(start, 0)
                if used < budget:
                    self._crash_counts[start] = used + 1
                    raise InjectedWorkerCrash(
                        f"injected worker crash for start {start} "
                        f"({used + 1}/{budget})"
                    )

    def tensor_for(self, start: int, tensor: SymmetricTensor) -> SymmetricTensor:
        """The tensor this start should see (corrupted copy when scheduled)."""
        entries = self.corrupt.get(start, 0)
        if not entries:
            return tensor
        return corrupt_tensor(tensor, entries, spawn_rng(self.seed, start))

    def wrap_kernels(self, start: int, attempt: int,
                     pair: KernelPair) -> KernelPair:
        """NaN-injecting clone of ``pair`` when (start, attempt) is
        scheduled, else ``pair`` unchanged."""
        if attempt in self.nan_kernel.get(start, frozenset()):
            return nan_injecting_pair(pair)
        return pair
