"""Kernel plans: shape-specialized batched suites, built once and cached.

Constructing a batched kernel suite for a shape ``(m, n)`` is not free:
the precomputed index/multinomial tables (:mod:`repro.kernels.tables`),
the blocking decomposition, and — for the code-generated variants —
generated and compiled straight-line code all have to be materialized.
The paper pays that cost once per shape and shares the result across
every thread block; :class:`KernelPlan` is the host-side analog: one
immutable bundle of (tables, compiled suite) per
``(m, n, variant, backend)``, held in a process-wide LRU
:class:`PlanCache` so plan construction is paid once per shape, not once
per solve.

Two orthogonal axes select the compiled suite:

* ``variant`` — *what* code runs (``"vectorized"``, ``"unrolled"``,
  ``"unrolled_cse"``, ``"blocked"``, or ``"auto"`` to autotune);
* ``backend`` — *how* it is compiled, resolved through the
  :mod:`repro.kernels.codegen` emitter registry: ``"numpy"`` (the
  historical ``exec`` path), ``"numba"`` (native JIT of the straight-line
  kernels, degrading gracefully to numpy when the dependency is absent),
  or ``"auto"`` (race the executable backends per shape and persist the
  winner — see :func:`repro.kernels.autotune.autotune_backend`).

Plan construction also reads/writes the persistent on-disk cache
(:mod:`repro.kernels.diskcache`), so tables and compiled code survive the
process: a warm second process skips the combinatorial table build *and*
the source generation/compilation.

The fleet engine (:mod:`repro.engine`) resolves every kernel call
through :func:`get_plan`; ad-hoc callers can use :func:`contract_many`,
the single entry point that unifies the flat-batched and
blocked-batched dispatch behind one signature.

Cache hits/misses/evictions land on the
``repro_plan_cache_events_total`` metric, disk traffic on
``repro_plan_disk_cache_events_total``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.kernels.batched import ax_m2_batched, infer_shape
from repro.kernels.dispatch import (
    _BATCHED_ALIASES,
    BatchedKernelPair,
    UnknownVariantError,
    _batched_suite,
    _num_threads,
)
from repro.kernels.errors import KernelLookupError, UnknownBackendError
from repro.kernels.tables import KernelTables, kernel_tables, prime_tables

__all__ = [
    "KernelPlan",
    "PlanCache",
    "available_plan_backends",
    "clear_plan_cache",
    "contract_many",
    "default_plan_cache",
    "get_plan",
]

#: variants whose suites are produced by code generation
_CODEGEN_VARIANTS = ("unrolled", "unrolled_cse")

#: backends a host-executable plan can be built on ("auto" races these)
_PLAN_BACKENDS = ("numpy", "numba")

_BACKEND_ALIASES = {"cuda": "cuda-src"}


@dataclass(frozen=True)
class KernelPlan:
    """An immutable, reusable evaluation plan for one
    ``(m, n, variant, backend)``.

    Attributes
    ----------
    m, n : tensor order and mode dimension.
    variant : canonical batched variant name (``"vectorized"``,
        ``"unrolled"``, ``"unrolled_cse"``, or ``"blocked"``).
    tables : the shared precomputed index/multinomial tables; ``None`` on
        a plan wrapped around an existing suite (``multistart_sshopm``
        hands the fleet engine its own suite this way, and the engine
        never reads the tables).
    suite : the compiled :class:`~repro.kernels.dispatch.BatchedKernelPair`.
    build_seconds : wall time spent constructing the plan (the cost the
        cache amortizes away).
    backend : the codegen backend the plan was requested on.
    effective_backend : the backend that actually compiled the kernels —
        differs from ``backend`` only on graceful degradation (numba not
        installed, or a shape the straight-line generator refuses).
    meta : provenance extras (``from_disk``, fallback reasons, ...).
    """

    m: int
    n: int
    variant: str
    tables: KernelTables | None
    suite: BatchedKernelPair
    build_seconds: float
    backend: str = "numpy"
    effective_backend: str = "numpy"
    meta: dict = field(default_factory=dict)

    def ax_m(self, values: np.ndarray, x: np.ndarray, counter=None) -> np.ndarray:
        """Batched ``A x^m`` over broadcasting leading dimensions."""
        return self.suite.ax_m(values, x, counter=counter)

    def ax_m1(self, values: np.ndarray, x: np.ndarray, counter=None) -> np.ndarray:
        """Batched ``A x^{m-1}`` over broadcasting leading dimensions."""
        return self.suite.ax_m1(values, x, counter=counter)

    def ax_m2(self, values: np.ndarray, x: np.ndarray, counter=None) -> np.ndarray:
        """Batched Hessian ``(m-1) A x^{m-2}``, shaped ``(..., n, n)``.

        The Jacobian of :meth:`ax_m1`, evaluated from the shape's table row
        expansion (:func:`~repro.kernels.batched.ax_m2_batched`); it is the
        same kernel on every variant and backend.
        """
        tables = self.tables if self.tables is not None else kernel_tables(
            self.m, self.n)
        return ax_m2_batched(values, x, tables, counter=counter)

    @property
    def key(self) -> tuple[int, int, str, str]:
        return (self.m, self.n, self.variant, self.backend)


def _canonical_variant(variant: str, m: int, n: int) -> str:
    """Resolve aliases (``"batched"``, ``"batched_unrolled"``) and
    ``"auto"`` (autotuned) to a canonical batched variant name."""
    if variant == "auto":
        from repro.kernels.autotune import autotune

        best = autotune(m, n).best
        variant = best if best in _BATCHED_ALIASES else "vectorized"
    if variant not in _BATCHED_ALIASES:
        raise UnknownVariantError(
            variant, sorted({*_BATCHED_ALIASES.values()}) + ["auto"]
        )
    return _BATCHED_ALIASES[variant]


def available_plan_backends() -> list[str]:
    """Backend names :func:`get_plan` accepts (``"auto"`` races the rest)."""
    return [*_PLAN_BACKENDS, "auto"]


def _canonical_backend(backend: str, m: int, n: int, variant: str) -> str:
    """Resolve ``backend`` to a concrete host-executable backend name."""
    backend = _BACKEND_ALIASES.get(backend, backend)
    if backend == "auto":
        from repro.kernels.autotune import autotune_backend

        return autotune_backend(m, n, variant).best
    if backend == "cuda-src":
        raise KernelLookupError(
            "backend 'cuda-src' emits source only and cannot execute on the "
            "host; use repro.kernels.codegen.emit(..., target='cuda-src') "
            "for the source, or a host backend "
            f"({available_plan_backends()}) for plans"
        )
    if backend not in _PLAN_BACKENDS:
        raise UnknownBackendError(backend, available_plan_backends())
    return backend


def _suite_with_flops(name: str, ax_m_fn, ax_m1_fn, flops_scalar: int,
                      flops_vector: int) -> BatchedKernelPair:
    """Wrap plain ``(values, x)`` callables with the per-thread flop
    accounting every batched suite carries."""

    def ax_m(values, x, counter=None):
        if counter is not None:
            counter.add_flops(_num_threads(values, x) * flops_scalar)
        return ax_m_fn(values, x)

    def ax_m1(values, x, counter=None):
        if counter is not None:
            counter.add_flops(_num_threads(values, x) * flops_vector)
        return ax_m1_fn(values, x)

    return BatchedKernelPair(name, ax_m, ax_m1)


def _unrollable(m: int, n: int) -> bool:
    from repro.util.combinatorics import num_unique_entries

    return num_unique_entries(m, n) <= 4000


def _numpy_suite_from_entry(m: int, n: int, canonical: str,
                            entry: dict) -> BatchedKernelPair | None:
    """Rebuild a numpy codegen suite from a disk entry, skipping source
    generation (and, when the marshalled code survived, compilation)."""
    meta = entry["meta"]
    source = meta.get("source") or ""
    code = entry["code"]
    if code is None and not source:
        return None
    try:
        if code is None:
            code = compile(source, f"<plan-cache m={m} n={n} {canonical}>",
                           "exec")
        namespace: dict = {}
        exec(code, namespace)  # noqa: S102 - cache of our own generated code
        return _suite_with_flops(
            canonical,
            namespace["ax_m"],
            namespace["ax_m1"],
            int(meta.get("flops_scalar", 0)),
            int(meta.get("flops_vector", 0)),
        )
    except Exception:
        return None  # damaged entry: fall through to a cold build


def _store_numpy_codegen_entry(m: int, n: int, canonical: str,
                               tables: KernelTables) -> None:
    from repro.kernels import diskcache
    from repro.kernels.unrolled import _make_unrolled

    gen = _make_unrolled(m, n, cse=canonical == "unrolled_cse", batched=True)
    code = compile(gen.source, f"<plan-cache m={m} n={n} {canonical}>", "exec")
    diskcache.store_entry(
        m, n, canonical, "numpy",
        tables=tables,
        code=code,
        meta={
            "effective_backend": "numpy",
            "batched": True,
            "source": gen.source,
            "flops_scalar": gen.flops_scalar,
            "flops_vector": gen.flops_vector,
        },
    )


def _build_plan(m: int, n: int, canonical: str, backend: str) -> KernelPlan:
    from repro.kernels import diskcache

    t0 = time.perf_counter()
    entry = diskcache.load_entry(m, n, canonical, backend)
    if entry is not None:
        # skip the combinatorial table build in this process
        prime_tables(entry["tables"])
    tables = kernel_tables(m, n)

    effective = backend
    meta: dict = {"from_disk": entry is not None}
    suite: BatchedKernelPair | None = None

    if backend == "numba":
        emit_variant = canonical if canonical in _CODEGEN_VARIANTS else (
            "unrolled_cse" if _unrollable(m, n) else None
        )
        if emit_variant is None:
            # no straight-line form at this shape: numpy suite, honestly
            suite = _batched_suite(canonical, m, n)
            effective = "numpy"
            meta["fallback"] = (
                f"shape (m={m}, n={n}) exceeds the unroll guard; "
                f"no generated kernel to JIT"
            )
        else:
            from repro.kernels.codegen import emit as codegen_emit

            emitted = codegen_emit(m, n, emit_variant, target="numba")
            effective = emitted.effective_backend
            if effective != "numba":
                meta["fallback"] = emitted.meta.get("fallback", "")
            if emit_variant != canonical:
                meta["substituted_variant"] = emit_variant
            suite = _suite_with_flops(
                canonical, emitted.ax_m, emitted.ax_m1,
                emitted.flops_scalar, emitted.flops_vector,
            )
            if entry is None and effective == "numba":
                diskcache.store_entry(
                    m, n, canonical, "numba",
                    tables=tables,
                    meta={
                        "effective_backend": effective,
                        "batched": True,
                        "source": emitted.source,
                        "flops_scalar": emitted.flops_scalar,
                        "flops_vector": emitted.flops_vector,
                    },
                )
    else:  # numpy
        if entry is not None and canonical in _CODEGEN_VARIANTS:
            suite = _numpy_suite_from_entry(m, n, canonical, entry)
        if suite is None:
            suite = _batched_suite(canonical, m, n)
            if entry is None:
                if canonical in _CODEGEN_VARIANTS:
                    _store_numpy_codegen_entry(m, n, canonical, tables)
                else:
                    diskcache.store_entry(
                        m, n, canonical, "numpy",
                        tables=tables,
                        meta={"effective_backend": "numpy", "batched": True,
                              "source": ""},
                    )

    return KernelPlan(
        m=m,
        n=n,
        variant=canonical,
        tables=tables,
        suite=suite,
        build_seconds=time.perf_counter() - t0,
        backend=backend,
        effective_backend=effective,
        meta=meta,
    )


class PlanCache:
    """Thread-safe LRU cache of :class:`KernelPlan` keyed
    ``(m, n, variant, backend)``.

    ``maxsize`` bounds resident plans (an unrolled plan for a large shape
    holds compiled code and tables); the least recently *used* plan is
    evicted.  Hit/miss/eviction counts are kept both locally (``stats()``)
    and on the active metrics registry.
    """

    def __init__(self, maxsize: int = 32):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._plans: OrderedDict[tuple[int, int, str, str], KernelPlan] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, m: int, n: int, variant: str = "vectorized",
            backend: str = "numpy") -> KernelPlan:
        """The cached plan for ``(m, n, variant, backend)``, building it
        (and consulting the persistent disk cache) on a miss."""
        from repro.instrument.events import emit as _emit
        from repro.instrument.metrics import observe_plan_cache

        m, n = int(m), int(n)
        canonical = _canonical_variant(variant, m, n)
        canonical_backend = _canonical_backend(backend, m, n, canonical)
        key = (m, n, canonical, canonical_backend)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self.hits += 1
                observe_plan_cache("hit")
                _emit("plan_cache", outcome="hit", m=m, n=n,
                      variant=canonical, backend=canonical_backend)
                return plan
        # build outside the lock: plans are immutable, so a racing double
        # build wastes a little work but is correct
        plan = _build_plan(m, n, canonical, canonical_backend)
        with self._lock:
            self.misses += 1
            observe_plan_cache("miss")
            _emit("plan_cache", outcome="miss", m=m, n=n,
                  variant=canonical, backend=canonical_backend)
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)
                self.evictions += 1
                observe_plan_cache("evict")
        return plan

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self.hits = self.misses = self.evictions = 0

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, key: tuple) -> bool:
        if len(key) == 3:  # historical (m, n, variant) keys mean numpy
            key = (*key, "numpy")
        return tuple(key) in self._plans

    def stats(self) -> dict:
        """JSON-able counters plus the resident key list (LRU order)."""
        with self._lock:
            return {
                "maxsize": self.maxsize,
                "size": len(self._plans),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "keys": [list(k) for k in self._plans],
            }


_DEFAULT_CACHE = PlanCache()


def default_plan_cache() -> PlanCache:
    """The process-wide plan cache shared by every solver."""
    return _DEFAULT_CACHE


def get_plan(m: int, n: int, variant: str = "vectorized",
             backend: str = "numpy") -> KernelPlan:
    """Shorthand for ``default_plan_cache().get(m, n, variant, backend)``."""
    return _DEFAULT_CACHE.get(m, n, variant, backend)


def clear_plan_cache() -> None:
    """Drop every cached plan and reset the counters (mainly for tests)."""
    _DEFAULT_CACHE.clear()


def contract_many(
    values: np.ndarray,
    x: np.ndarray,
    kind: str = "ax_m1",
    *,
    variant: str = "vectorized",
    backend: str = "numpy",
    plan: KernelPlan | None = None,
    m: int | None = None,
    n: int | None = None,
    counter=None,
) -> np.ndarray:
    """One entry point for every batched symmetric contraction.

    Evaluates ``A x^m`` (``kind="ax_m"``) or ``A x^{m-1}``
    (``kind="ax_m1"``) for all broadcast leading-dimension combinations of
    ``values (..., U)`` against ``x (..., n)``, routing through the plan
    cache — this unifies the historical split between
    :mod:`repro.kernels.batched` and :mod:`repro.kernels.blocked_batched`
    behind one signature (pick ``variant="blocked"`` for the blocked path,
    ``backend="numba"`` for the native-JIT compilation of the generated
    kernels).

    ``(m, n)`` are inferred from the trailing axes when not given
    (raising :class:`~repro.kernels.errors.TableInferenceError` on
    ambiguity); pass them explicitly on hot paths to skip the search, or
    pass a prebuilt ``plan`` to skip the cache lookup entirely.
    """
    if kind not in ("ax_m", "ax_m1"):
        raise ValueError(f"kind must be 'ax_m' or 'ax_m1', got {kind!r}")
    if plan is None:
        if m is None or n is None:
            m, n = infer_shape(values, x)
        plan = get_plan(m, n, variant, backend)
    else:
        lead_n = int(np.shape(x)[-1])
        if plan.n != lead_n:
            raise KernelLookupError(
                f"plan is for n={plan.n} but x has trailing dim {lead_n}"
            )
    fn = plan.ax_m if kind == "ax_m" else plan.ax_m1
    return fn(values, x, counter=counter)
