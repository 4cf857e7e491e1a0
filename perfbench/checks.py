"""Output checks and input generation that the program under test cannot change.

Everything here is plain numpy written for the benchmark: the symmetric
expansion, the ``A x^{m-1}`` contraction used for residuals, the input
generators and the phantom fingerprint.  None of it calls ``repro``, so a
change to the program cannot loosen a check or move a workload.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from functools import lru_cache
from pathlib import Path

import numpy as np

RESIDUAL_TOL = 1e-6
#: Share of reported pairs that may miss their residual limit before the
#: run fails.  SS-HOPM's lambda-change stopping rule now and then stops a
#: lane on a plateau away from any eigenpair (about 1 lane in 20000 on
#: serve_open); such a pair fails its own operation instead.
MAX_UNVERIFIED = 0.01
HASH_FILE = Path(__file__).with_name("phantom_hashes.json")
#: Phantom seeds are taken modulo this, so every ``--seed`` has a
#: recorded fingerprint in ``phantom_hashes.json``.
PHANTOM_SEEDS = 1024


class CheckFailed(AssertionError):
    """An output or input check failed; the run must print no numbers."""


@lru_cache(maxsize=None)
def dense_index(m: int, n: int) -> np.ndarray:
    """Map each of the ``n**m`` dense positions to its unique-value slot.

    Unique values are stored in lexicographic order of the sorted index
    ``i1 <= ... <= im``, which is the order of
    ``itertools.combinations_with_replacement``.
    """
    rank = {c: k for k, c in enumerate(
        itertools.combinations_with_replacement(range(n), m))}
    return np.array([rank[tuple(sorted(ix))]
                     for ix in itertools.product(range(n), repeat=m)],
                    dtype=np.int64)


def ax_m1(values: np.ndarray, m: int, n: int, x: np.ndarray) -> np.ndarray:
    """Dense ``A x^{m-1}``: ``values`` is ``(T, U)``, ``x`` is ``(T, V, n)``;
    returns ``(T, V, n)``."""
    T = values.shape[0]
    dense = values[:, dense_index(m, n)].reshape(T, n, n ** (m - 1))
    power = x
    for _ in range(m - 2):
        power = (power[..., :, None] * x[..., None, :]).reshape(
            *x.shape[:-1], -1)
    return np.einsum("tia,tva->tvi", dense, power)


def residuals(values, m, n, lam, x) -> np.ndarray:
    """``||A x^{m-1} - lam x||`` per pair; ``lam`` is ``(T, V)``."""
    x = np.asarray(x, dtype=np.float64)
    y = ax_m1(np.asarray(values, dtype=np.float64), m, n, x)
    return np.linalg.norm(y - np.asarray(lam)[..., None] * x, axis=-1)


def residual_limit(lam, stop_tol: float | None, shift: float = 0.0):
    """Largest residual a reported pair may have.

    Solvers that polish with Newton (QRST) must reach ``RESIDUAL_TOL``.
    Solvers that stop when ``lambda`` changes by less than ``stop_tol``
    (SS-HOPM, GEAP, the MRI multistart) leave a residual of order
    ``sqrt(stop_tol) * (|lambda| + |shift|)``: ``lambda`` is stationary on
    the sphere, so a ``lambda`` step of ``stop_tol`` allows a vector error
    of ``sqrt(stop_tol)``, and the shifted step scales it by
    ``|lambda| + |shift|``.  Their pairs must stay within ten times that.
    """
    lam = np.abs(np.asarray(lam, dtype=np.float64))
    if stop_tol is None:
        return np.full_like(lam, RESIDUAL_TOL)
    return np.maximum(RESIDUAL_TOL,
                      10.0 * np.sqrt(stop_tol) * (lam + abs(shift) + 1.0))


def verify_pairs(values, m, n, pairs_per_tensor, what: str,
                 stop_tol: float | None = None, shift: float = 0.0):
    """Check every ``(lam, x)`` pair of every tensor against
    :func:`residual_limit`.

    ``pairs_per_tensor[t]`` is a list of ``(lam, x)`` for tensor ``t``.
    Returns per-tensor counts ``(verified, unverified)`` and the
    ``(T, V)`` mask of verified pairs.  A pair that is not finite or not of
    unit length fails the run at once.
    """
    T = len(pairs_per_tensor)
    V = max((len(p) for p in pairs_per_tensor), default=0)
    lam = np.zeros((T, V))
    x = np.zeros((T, V, n))
    x[..., 0] = 1.0
    used = np.zeros((T, V), dtype=bool)
    for t, pairs in enumerate(pairs_per_tensor):
        for v, (l, vec) in enumerate(pairs):
            lam[t, v] = l
            x[t, v] = vec
            used[t, v] = True
    if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(x))):
        raise CheckFailed(f"{what}: non-finite eigenpair")
    if np.any(np.abs(np.linalg.norm(x, axis=-1)[used] - 1.0) > 1e-8):
        raise CheckFailed(f"{what}: eigenvector is not unit length")
    ok = residuals(values, m, n, lam, x) <= residual_limit(lam, stop_tol,
                                                          shift)
    return (ok & used).sum(axis=1), (~ok & used).sum(axis=1), ok & used


def gate_unverified(unverified: int, reported: int, what: str) -> None:
    """Fail the run when more than ``MAX_UNVERIFIED`` of the reported pairs
    miss their residual limit.  Fewer only fail their own operations."""
    if reported and unverified / reported > MAX_UNVERIFIED:
        raise CheckFailed(
            f"{what}: {unverified} of {reported} reported eigenpairs miss "
            f"their residual limit")


def unit_rows(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    x = rng.standard_normal((count, n))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def spectra_inputs(seed: int, part: int, tensors: int, unique: int,
                   starts: int, n: int):
    """Values ``(tensors, unique)`` and shared unit starts ``(starts, n)``
    for pass ``part`` of a run with ``seed``."""
    rng = np.random.default_rng([seed, part])
    return rng.standard_normal((tensors, unique)), unit_rows(rng, starts, n)


def serve_schedule(seed: int, count: int, rate: float) -> np.ndarray:
    """Due times of ``count`` Poisson arrivals at ``rate`` per second.

    The gaps are the ``count`` stratified quantiles of the exponential
    distribution, in an order shuffled by ``seed``: every seed offers the
    same load with the same spread of gaps, and only where the bursts
    fall changes.  Plain random gaps would move the total span by
    ``1/sqrt(count)`` and the bursts with it, from seed to seed.
    """
    rng = np.random.default_rng([seed, 0x5e])
    gaps = -np.log1p(-(np.arange(count) + 0.5) / count) / rate
    return np.concatenate([[0.0], np.cumsum(rng.permutation(gaps))[:-1]])


def serve_payload(seed: int, index: int, tensors: int, unique: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 0x5e, index])
    return rng.standard_normal((tensors, unique))


def phantom_fingerprint(phantom) -> str:
    """Hash of the generated phantom inputs: gradients, ADC samples and
    the true fiber directions, rounded to 10 decimals."""
    h = hashlib.sha256()
    for arr in (phantom.gradients, phantom.adc, *phantom.true_directions):
        h.update(np.ascontiguousarray(np.round(arr, 10)).tobytes())
    return h.hexdigest()[:16]


def check_phantom(phantom, seed: int) -> None:
    recorded = json.loads(HASH_FILE.read_text())["hashes"]
    got = phantom_fingerprint(phantom)
    want = recorded[seed % PHANTOM_SEEDS]
    if got != want:
        raise CheckFailed(
            f"phantom inputs for seed {seed} changed: fingerprint {got}, "
            f"recorded {want}")


def dedupe_count(lam: np.ndarray, x: np.ndarray, m: int,
                 lam_tol: float = 1e-5, cos_tol: float = 0.9999) -> int:
    """Distinct pairs among ``lam`` ``(V,)``, ``x`` ``(V, n)`` (even ``m``:
    ``x`` and ``-x`` are the same pair)."""
    reps: list[tuple[float, np.ndarray]] = []
    for l, v in zip(lam, x):
        if not any(abs(l - rl) <= lam_tol and abs(float(v @ rv)) >= cos_tol
                   for rl, rv in reps):
            reps.append((float(l), v))
    return len(reps)
