"""The solver registry: ``repro.solve(method=...)`` routes through here.

Every eigensolver in the package is a :class:`SolverEntry` registered
under a short method name (``"sshopm"``, ``"geap"``, ``"qrst"``).  The
facade validates the requested method with :func:`get_solver`
(``method="auto"`` picks a name via :func:`choose_method` first).  The
built-in names route by request shape inside the facade: one start runs
the single-start solver, many starts or a batch run the fleet engine
(or ``qrst_batch``).  A third-party entry is called through its own
``single`` (one tensor) or ``batch`` (a
:class:`~repro.symtensor.storage.SymmetricTensorBatch`) callable.

Third-party solvers plug in the same way (see ``docs/solvers.md``)::

    from repro.solvers import SolverEntry, register_solver

    register_solver("power2", SolverEntry(
        name="power2", summary="my experimental two-step power method",
        single=my_solver_fn,          # (tensor, **kwargs) -> ResultProtocol
    ))
    report = repro.solve(tensor, method="power2")

Entries must return objects satisfying
:class:`~repro.core.results.ResultProtocol` (``.converged``,
``.telemetry``, ``.eigenpairs()``), which is what every downstream
consumer — dedup, serve rows, the bench harness — reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = [
    "AUTO_RULES",
    "SolverEntry",
    "UnknownMethodError",
    "available_methods",
    "choose_method",
    "get_solver",
    "register_solver",
]


class UnknownMethodError(ValueError):
    """A ``method=`` name with no registered solver behind it."""

    def __init__(self, name: str):
        super().__init__(
            f"unknown solver method {name!r}; available: "
            + ", ".join(available_methods())
        )
        self.name = name


@dataclass(frozen=True)
class SolverEntry:
    """One routable eigensolver.

    Fields
    ------
    name : registry key, the ``method=`` spelling.
    summary : one line for humans (``repro solve --method help``-style
        listings and docs).
    single : callable solving one :class:`SymmetricTensor`
        (``(tensor, **kwargs) -> ResultProtocol``); ``None`` if the
        solver is batch-only.
    batch : callable solving a whole batch; ``None`` routes batch
        requests through the facade's generic per-tensor fallback for
        custom entries (built-in methods all provide one).
    modes : spectrum targets the solver serves — ``"max"`` (convex /
        local maxima), ``"min"`` (concave / local minima), ``"extreme"``
        (both ends without a mode switch).
    deterministic : the solver does not consume starting vectors (QRST:
        its iteration is seeded by the tensor itself, so ``starts=``
        only sizes the result's eigenpair slots).
    """

    name: str
    summary: str
    single: Callable | None = None
    batch: Callable | None = None
    modes: tuple[str, ...] = ("max",)
    deterministic: bool = False


_REGISTRY: dict[str, SolverEntry] = {}


def register_solver(name: str, entry: SolverEntry, *, replace: bool = False) -> SolverEntry:
    """Register ``entry`` under ``name``; returns the entry.

    Re-registering an existing name raises :class:`ValueError` unless
    ``replace=True`` — accidental shadowing of a built-in solver should
    be loud.
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"solver name must be a non-empty string, got {name!r}")
    if name == "auto":
        raise ValueError("'auto' is the routing pseudo-method and cannot be registered")
    if entry.single is None and entry.batch is None:
        raise ValueError(f"solver {name!r} must provide a single= or batch= callable")
    if name in _REGISTRY and not replace:
        raise ValueError(
            f"solver {name!r} is already registered; pass replace=True to override"
        )
    _REGISTRY[name] = entry
    return entry


def available_methods() -> tuple[str, ...]:
    """Registered method names (sorted), plus the ``"auto"`` router."""
    return tuple(sorted(_REGISTRY)) + ("auto",)


def get_solver(name: str) -> SolverEntry:
    """The entry registered under ``name`` (:class:`UnknownMethodError` if none)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownMethodError(name) from None


#: The ``method="auto"`` heuristic table, fed by
#: ``benchmarks/bench_methods.py`` on the 64-tensor reference workload
#: (see ``docs/solvers.md`` for the measured numbers behind each rule).
#: Rules are checked in order; the first hit wins.
AUTO_RULES: tuple[tuple[str, str], ...] = (
    ("batch", "sshopm"),        # fleet lanes amortize kernels across T*V pairs
    ("spectrum=min", "geap"),   # concave mode needs an adaptive negative shift
    ("small-dense", "qrst"),    # one deterministic run sweeps several pairs
    ("default", "sshopm"),
)

#: Dense-size ceiling for the ``small-dense -> qrst`` rule: QRST works on
#: the dense tensor, so it only wins while ``n**m`` stays cache-sized.
AUTO_QRST_DENSE_LIMIT = 4096


def choose_method(
    m: int,
    n: int,
    *,
    batch: bool = False,
    num_starts: int = 1,
    spectrum: str = "max",
) -> str:
    """Resolve ``method="auto"`` by problem shape and spectrum target.

    The rules (in :data:`AUTO_RULES` order):

    1. Batch workloads route to ``sshopm`` — the fleet engine's
       vectorized lanes dominate per-eigenpair wall time there.
    2. ``spectrum="min"`` routes to ``geap`` — its concave mode reaches
       local minima SS-HOPM's convex shift never converges to.
    3. A single tensor whose dense form is small (``n**m`` at most
       :data:`AUTO_QRST_DENSE_LIMIT`) with few requested starts routes
       to ``qrst`` — one deterministic deflation run recovers several
       eigenpairs without a multistart sweep.
    4. Everything else is ``sshopm``.
    """
    if batch:
        return "sshopm"
    if spectrum == "min" and "min" in get_solver("geap").modes:
        return "geap"
    if n ** m <= AUTO_QRST_DENSE_LIMIT and num_starts <= 8:
        return "qrst"
    return "sshopm"
