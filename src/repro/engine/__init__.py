"""Fleet solve engine: whole-workload batched SS-HOPM scheduling.

One flat pool of (tensor, start) *lanes* advanced sweep by sweep through
plan-cached batched kernels, with immediate retirement of converged and
dead lanes and periodic active-set compaction.  See
:func:`repro.engine.fleet.fleet_solve` and ``docs/api.md``.
"""

from repro.engine.fleet import FleetWorkspace, fleet_solve, suggested_shifts

__all__ = ["FleetWorkspace", "fleet_solve", "suggested_shifts"]
