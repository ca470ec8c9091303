"""Per-phase kernel timing counters (the ``--profile-kernel`` hook).

The compiled columnar path (:mod:`repro.sim.kernel_columns`), the
object kernel (:func:`repro.sim.kernel.run_swarm_object`), the
task-ref resolver and the reducer (:class:`repro.sim.reduce.\
StreamingReducer`) accumulate wall-clock into the module-level
:data:`PROFILE` singleton whenever it is enabled, split by phase:
decode (store extent bytes -> objects, or the fused decode+build
pass), schedule build, sweep (membership timeline), matching
(seed/fresh selection + phase drains), drain/accounting (ledger and
per-user arithmetic), and reduce (the output fold and the final result
build, under every reduction mode).  ``consume-local
simulate --profile-kernel`` and ``bench_kernel --profile`` enable it
around a run and print the breakdown, so perf work measures instead of
guessing.

On the zero-object ingest path the compiled ``decode_build`` fuses
decoding and schedule construction into a single pass over the raw
extent buffer; that whole pass is charged to ``decode_seconds`` and the
task is counted in ``fused_tasks`` (its ``schedule_seconds`` share is
zero by construction -- there is no separate build step to time).  A
resident task's schedule comes from the compiled ``build``, charged to
``schedule_seconds``.

Profiling is strictly observational: enabling it never changes results,
only adds ``perf_counter`` calls around phases, and it never picks a
kernel.  The compiled sweep times its matching/accounting split
internally (it receives a profile flag) so the breakdown stays
meaningful on the fast path.  Swarms on the object kernel --
``kernel="object"``, random matching, an install without the compiled
extension, or a task the C builders decline -- are counted once each and
their whole sweep is charged to ``sweep`` (it has no matching /
accounting split).  ``tasks`` counts every swarm swept, on either
kernel; ``compiled_tasks`` those swept in C.  ``compiled_folds``
counts the outputs the reducer folded in C (``_ckernel.fold``) rather
than in its python fold, and ``compiled_sorts`` the external sorts
(:class:`repro.trace.store.ExternalGroupSorter`) merged in C
(``_ckernel.SortBuffer``) rather than by its tuple path.
"""

from __future__ import annotations

__all__ = ["KernelProfile", "PROFILE"]


class KernelProfile:
    """Accumulated per-phase seconds for one profiled run."""

    __slots__ = (
        "enabled",
        "decode_seconds",
        "schedule_seconds",
        "sweep_seconds",
        "match_seconds",
        "account_seconds",
        "reduce_seconds",
        "tasks",
        "compiled_tasks",
        "fused_tasks",
        "compiled_folds",
        "compiled_sorts",
    )

    def __init__(self) -> None:
        self.enabled = False
        self.reset()

    def reset(self) -> None:
        """Zero every counter (``enabled`` is left as-is)."""
        self.decode_seconds = 0.0
        self.schedule_seconds = 0.0
        self.sweep_seconds = 0.0
        self.match_seconds = 0.0
        self.account_seconds = 0.0
        self.reduce_seconds = 0.0
        self.tasks = 0
        self.compiled_tasks = 0
        self.fused_tasks = 0
        self.compiled_folds = 0
        self.compiled_sorts = 0

    def report(self) -> str:
        """A human-readable per-phase breakdown."""
        rows = [
            ("decode", self.decode_seconds),
            ("schedule build", self.schedule_seconds),
            ("sweep", self.sweep_seconds),
            ("  matching", self.match_seconds),
            ("  drain/accounting", self.account_seconds),
            ("reduce", self.reduce_seconds),
        ]
        lines = [
            "kernel profile "
            f"({self.tasks} swarms, {self.compiled_tasks} on the compiled path, "
            f"{self.fused_tasks} fused-decoded, {self.compiled_folds} "
            "outputs folded in C):"
        ]
        for label, seconds in rows:
            lines.append(f"  {label:<20} {seconds * 1e3:10.2f} ms")
        return "\n".join(lines)


#: The process-wide profile sink.  Off by default; the CLI / benchmarks
#: enable it around a run and read the totals back.
PROFILE = KernelProfile()
