"""Scheduler base classes.

Three families of schedulers are supported:

* :class:`PriorityScheduler` -- "list" schedulers that maintain a priority
  among active jobs and apply the greedy rule of Section 3 at every decision
  point: the highest-priority job receives *all* the available machines able
  to process it, the next job receives the remaining ones, and so on.  On a
  single machine this is exactly preemptive priority scheduling, which is the
  setting in which SRPT, SWRPT, ... are analysed in the paper.
* :class:`PlanBasedScheduler` -- schedulers that compute an explicit plan
  (per-machine timelines of job segments) at certain events and then simply
  follow it.  The off-line optimal algorithm, the LP-based on-line heuristics
  and the MCT greedy strategies fall in this family.
* Free-form schedulers deriving directly from :class:`Scheduler`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.schedule import Schedule
from repro.simulation.state import Assignment, JobRuntime, SchedulerState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.schedulers.policies import ReplanPolicy

__all__ = ["Scheduler", "PriorityScheduler", "PlanBasedScheduler", "PlanSegment"]


class Scheduler(ABC):
    """Interface between the simulation engine and a scheduling strategy."""

    #: Human-readable name used in result tables.
    name: str = "scheduler"

    #: Whether the strategy can run under a fault timeline.  Clairvoyant
    #: strategies whose whole-run plan assumes a reliable platform set this
    #: to ``False``; the engine then refuses to pair them with faults
    #: instead of producing silently wrong schedules.
    fault_aware: bool = True

    def reset(self, instance: Instance) -> None:
        """Called once before the simulation starts.

        Off-line strategies (which know the whole instance in advance) build
        their plan here; on-line strategies typically only record the
        instance for later use.
        """

    def on_arrival(self, state: SchedulerState, job: Job) -> None:
        """Called when ``job`` is released (after it was added to ``state``)."""

    def on_arrivals(self, state: SchedulerState, jobs: Sequence[Job]) -> None:
        """Called once per batch of simultaneous releases.

        The engine delivers arrivals in batches (usually of size one); the
        default forwards to :meth:`on_arrival` job by job.  Schedulers whose
        arrival handling is expensive (LP replans) override this to react
        once per batch.
        """
        for job in jobs:
            self.on_arrival(state, job)

    def on_completion(self, state: SchedulerState, job_id: int) -> None:
        """Called when a job completes."""

    def on_availability(
        self, state: SchedulerState, downs: Sequence[int], ups: Sequence[int]
    ) -> None:
        """Called after machine availability changed (fault injection).

        ``downs``/``ups`` are the machine ids that just left/rejoined the
        platform; ``state.down`` already reflects the new availability and
        in-flight work on the failed machines has been re-queued per the
        timeline's loss model.  Stateless schedulers need not react -- their
        next :meth:`assign` reads the filtered availability from the state
        -- but plan-holding strategies must invalidate anything that
        references the transitioned machines.
        """

    def on_idle(self, state: SchedulerState, until: float) -> None:
        """Called when simulated time is about to jump to ``until``.

        The engine fires this exactly once per inter-event gap, just before
        time advances to the next queued event: either no job is active, or
        the current step runs uninterrupted into that event.  Schedulers may
        use the dead time to precompute work for the upcoming event (e.g.
        the LP heuristics speculatively pre-solving the next replan), but
        must not alter the schedule -- the state is read-only here like in
        every other callback, and the wall-clock spent is counted into the
        scheduler overhead.
        """

    def finalize(self, state: SchedulerState) -> None:
        """Called once after the last job completed (the run is over).

        Strategies holding reusable solver state publish it here (e.g. the
        LP heuristics pushing warm-start state into the cross-run solver
        bank).  Must not alter the schedule -- the engine has already
        stopped executing assignments when this fires.
        """

    @abstractmethod
    def assign(self, state: SchedulerState) -> Assignment:
        """Return the machine->job assignment to apply from ``state.time`` on."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class PriorityScheduler(Scheduler):
    """Greedy list scheduling driven by a per-job priority key.

    Subclasses implement :meth:`priority`; lower keys mean higher priority.
    At every decision point the active jobs are sorted by priority and the
    rule of Section 3 is applied: while some processors are idle, pick the
    highest-priority not-yet-served job and give it every available processor
    able to serve it.
    """

    def __init__(self) -> None:
        self.instance: Instance | None = None

    def reset(self, instance: Instance) -> None:
        self.instance = instance

    @abstractmethod
    def priority(self, state: SchedulerState, runtime: JobRuntime) -> float:
        """Priority key of an active job (smaller = more urgent)."""

    def priority_keys(
        self, state: SchedulerState, runtimes: Sequence[JobRuntime]
    ) -> np.ndarray:
        """Priority keys of ``runtimes`` as a float64 array.

        The default evaluates :meth:`priority` job by job; subclasses whose
        key is arrayable override this to build the whole vector in one pass
        (the values must match :meth:`priority` exactly -- the ranking
        consumes them verbatim).
        """
        return np.fromiter(
            (self.priority(state, rt) for rt in runtimes),
            np.float64,
            count=len(runtimes),
        )

    def assign(self, state: SchedulerState) -> Assignment:
        instance = state.instance
        runtimes = state.active_jobs()
        keys = np.asarray(self.priority_keys(state, runtimes), dtype=np.float64)
        job_ids = np.fromiter(
            (rt.job_id for rt in runtimes), np.int64, count=len(runtimes)
        )
        order = _rank_by_priority(keys, job_ids)
        available = state.available_ids()
        mapping: dict[int, int] = {}
        for position in order.tolist():
            if not available:
                break
            runtime = runtimes[position]
            eligible = [
                m for m in instance.eligible_machine_ids(runtime.job_id) if m in available
            ]
            if not eligible:
                continue
            for machine_id in eligible:
                mapping[machine_id] = runtime.job_id
                available.discard(machine_id)
        return Assignment(mapping=mapping)


@dataclass(frozen=True)
class PlanSegment:
    """A planned dedication of one machine to one job over a time interval."""

    machine_id: int
    job_id: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(
                f"plan segment for job {self.job_id} on machine {self.machine_id} "
                f"has non-positive duration"
            )

    @property
    def duration(self) -> float:
        return self.end - self.start


class PlanBasedScheduler(Scheduler):
    """A scheduler that follows an explicit per-machine plan.

    Subclasses populate the plan by calling :meth:`set_plan`,
    :meth:`extend_plan` or :meth:`clear_plan_from` (typically from
    :meth:`reset` or :meth:`on_arrival`); :meth:`assign` then simply reads
    the plan.

    On-line subclasses may additionally hand a
    :class:`~repro.schedulers.policies.ReplanPolicy` to the constructor and
    implement :meth:`replan` (and, for absorbing policies,
    :meth:`absorb_arrivals`).  The policy then decides, per arrival batch,
    whether to recompute the plan now, wake up later (deferred arrivals cap
    the assignment's ``valid_until``), or splice the new jobs into the
    existing plan cheaply.  Without a policy the historical behaviour is
    unchanged: every arrival is forwarded to :meth:`on_arrival`.
    """

    def __init__(self, policy: "ReplanPolicy | None" = None) -> None:
        self.instance: Instance | None = None
        self._plan: dict[int, list[PlanSegment]] = {}
        #: Per-machine (starts, ends) float64 views of ``_plan``, built lazily
        #: for the plan-horizon scan and dropped whenever the machine's
        #: segment list changes (every mutation goes through the methods
        #: below, so the cache cannot go stale).
        self._plan_arrays: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.policy = policy
        self._recheck_at: float | None = None

    def reset(self, instance: Instance) -> None:
        self.instance = instance
        self._plan = {m.machine_id: [] for m in instance.platform}
        self._plan_arrays = {}
        self._recheck_at = None
        if self.policy is not None:
            self.policy.reset(instance)

    # -- plan manipulation ---------------------------------------------------------
    def set_plan(self, segments: Iterable[PlanSegment]) -> None:
        """Replace the whole plan."""
        assert self.instance is not None
        self._plan = {m.machine_id: [] for m in self.instance.platform}
        self._plan_arrays = {}
        self.extend_plan(segments)

    def extend_plan(self, segments: Iterable[PlanSegment]) -> None:
        """Append segments to the plan (kept sorted by start time)."""
        for segment in segments:
            per_machine = self._plan.setdefault(segment.machine_id, [])
            per_machine.append(segment)
            self._plan_arrays.pop(segment.machine_id, None)
        for per_machine in self._plan.values():
            per_machine.sort(key=lambda s: s.start)

    def clear_plan_from(self, time: float) -> None:
        """Drop every planned segment that starts at or after ``time``.

        Segments straddling ``time`` are truncated; used by on-line
        strategies that re-plan at each release date.
        """
        for machine_id, per_machine in self._plan.items():
            kept: list[PlanSegment] = []
            for segment in per_machine:
                if segment.end <= time + 1e-12:
                    kept.append(segment)
                elif segment.start < time - 1e-12:
                    kept.append(
                        PlanSegment(
                            machine_id=segment.machine_id,
                            job_id=segment.job_id,
                            start=segment.start,
                            end=time,
                        )
                    )
                # Segments starting after ``time`` are dropped.
            self._plan[machine_id] = kept
        self._plan_arrays = {}

    def plan_segments(self, machine_id: int | None = None) -> list[PlanSegment]:
        """The current plan (for inspection and testing)."""
        if machine_id is not None:
            return list(self._plan.get(machine_id, []))
        return [s for per_machine in self._plan.values() for s in per_machine]

    def plan_horizon(self, machine_id: int, time: float) -> float:
        """Earliest date >= ``time`` at which the machine becomes free in the plan."""
        arrays = self._plan_arrays.get(machine_id)
        if arrays is None:
            per_machine = self._plan.get(machine_id, ())
            count = len(per_machine)
            arrays = (
                np.fromiter((s.start for s in per_machine), np.float64, count=count),
                np.fromiter((s.end for s in per_machine), np.float64, count=count),
            )
            self._plan_arrays[machine_id] = arrays
        return _plan_horizon_scan(arrays[0], arrays[1], time)

    def plan_tail(self, machine_id: int, time: float) -> float:
        """Date at which the machine's *whole* plan is over (>= ``time``).

        Unlike :meth:`plan_horizon` this skips past internal idle gaps, so a
        segment appended at the tail can never overlap planned work (LP plans
        routinely leave gaps between milestone intervals).
        """
        per_machine = self._plan.get(machine_id, [])
        if not per_machine:
            return time
        return max(time, max(segment.end for segment in per_machine))

    # -- policy-driven replanning --------------------------------------------------------
    def replan(self, state: SchedulerState) -> None:
        """Recompute the plan from the current state (policy hook)."""
        raise NotImplementedError(
            f"{type(self).__name__} uses a replan policy but does not implement replan()"
        )

    def absorb_arrivals(self, state: SchedulerState, jobs: Sequence[Job]) -> None:
        """Cheaply splice deferred arrivals into the current plan (policy hook)."""
        raise NotImplementedError(
            f"{type(self).__name__}'s replan policy absorbs arrivals but "
            f"absorb_arrivals() is not implemented"
        )

    def _do_replan(self, state: SchedulerState) -> None:
        self._recheck_at = None
        self.replan(state)
        if self.policy is not None:
            self.policy.notify_replanned(state)

    def on_arrivals(self, state: SchedulerState, jobs: Sequence[Job]) -> None:
        if self.policy is None:
            super().on_arrivals(state, jobs)
            return
        decision = self.policy.on_arrivals(state, jobs, self)
        if decision.replan:
            self._do_replan(state)
            return
        if decision.absorb:
            self.absorb_arrivals(state, jobs)
        if decision.recheck_at is not None:
            self._recheck_at = (
                decision.recheck_at
                if self._recheck_at is None
                else min(self._recheck_at, decision.recheck_at)
            )

    def on_completion(self, state: SchedulerState, job_id: int) -> None:
        if self.policy is None:
            return
        decision = self.policy.on_completion(state, job_id, self)
        if decision.replan:
            self._do_replan(state)

    def on_availability(
        self, state: SchedulerState, downs: Sequence[int], ups: Sequence[int]
    ) -> None:
        """Every availability transition invalidates the plan: recompute now.

        The default drops everything planned from the current instant and
        forces an immediate replan through :meth:`rebuild_after_availability`
        (policies never get to defer this -- a plan referencing a downed
        machine must not survive even one step).
        """
        self.clear_plan_from(state.time)
        self._recheck_at = None
        self.rebuild_after_availability(state, downs, ups)

    def rebuild_after_availability(
        self, state: SchedulerState, downs: Sequence[int], ups: Sequence[int]
    ) -> None:
        """Recompute the plan after a transition (default: full replan)."""
        self._do_replan(state)

    # -- plan following -----------------------------------------------------------------
    def assign(self, state: SchedulerState) -> Assignment:
        if self._recheck_at is not None and state.time >= self._recheck_at - 1e-9:
            # A deferred-replan wake-up date has been reached.
            self._do_replan(state)
        assignment = self.plan_assignment(state)
        if self._recheck_at is not None and (
            assignment.valid_until is None or assignment.valid_until > self._recheck_at
        ):
            assignment.valid_until = self._recheck_at
        return assignment

    def plan_assignment(self, state: SchedulerState) -> Assignment:
        """Read the current plan at ``state.time`` (overridable)."""
        time = state.time
        mapping: dict[int, int] = {}
        breakpoints: list[float] = []
        down = state.down
        for machine_id, per_machine in self._plan.items():
            if down and machine_id in down:
                # Defensive: a downed machine executes nothing, whatever a
                # stale plan says (replans triggered by on_availability make
                # this unreachable in practice).
                continue
            current: PlanSegment | None = None
            upcoming: PlanSegment | None = None
            for segment in per_machine:
                if segment.end <= time + 1e-12:
                    continue
                if not state.is_active(segment.job_id):
                    # The job finished (slightly) earlier than planned; skip
                    # its leftover segments.
                    continue
                if segment.start <= time + 1e-12:
                    current = segment
                else:
                    upcoming = segment
                break_found = current is not None or upcoming is not None
                if break_found:
                    break
            if current is not None:
                mapping[machine_id] = current.job_id
                breakpoints.append(current.end)
            elif upcoming is not None:
                breakpoints.append(upcoming.start)
        valid_until = min(breakpoints) if breakpoints else None
        return Assignment(mapping=mapping, valid_until=valid_until)

    # -- helpers for subclasses --------------------------------------------------------
    @staticmethod
    def segments_from_schedule(schedule: Schedule) -> list[PlanSegment]:
        """Convert a materialized :class:`Schedule` into plan segments."""
        return [
            PlanSegment(
                machine_id=s.machine_id, job_id=s.job_id, start=s.start, end=s.end
            )
            for s in schedule
        ]


def _rank_by_priority(priorities: np.ndarray, job_ids: np.ndarray) -> np.ndarray:
    """Rank jobs by ``(priority, job_id)`` ascending; returns int64 positions.

    The ranking of every list scheduler (Section 3's greedy rule): smaller
    keys are more urgent, ties broken by job id.  Job ids are unique, so the
    key is total and the lexicographic sort is deterministic.
    """
    return np.lexsort((job_ids, priorities)).astype(np.int64, copy=False)


def _plan_horizon_scan(starts: np.ndarray, ends: np.ndarray, time: float) -> float:
    """Earliest date >= ``time`` at which a machine's plan leaves it free.

    ``starts``/``ends`` are the machine's planned segments sorted by start;
    the scan chains through every segment overlapping the running horizon
    (1e-12 tolerance).  The chain runs through the last absorbed segment
    end, so the scan stays a sequential loop.
    """
    horizon = time
    for i in range(starts.size):
        if ends[i] <= horizon + 1e-12:
            continue
        if starts[i] > horizon + 1e-12:
            break
        horizon = ends[i]
    return float(horizon)
