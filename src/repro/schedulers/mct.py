"""Greedy minimum-completion-time strategies (the production GriPPS policy).

``MCT`` assigns each arriving job, in its entirety, to the machine that would
complete it first given the work already queued there; the decision is never
revisited (non-preemptive, non-divisible).  This models the scheduler
deployed in the GriPPS system at the time of the paper and is the main
"anti-pattern" of Section 5.3: small jobs arriving behind a large one are
stretched enormously.

``MCT-Div`` keeps the greedy, irrevocable spirit but exploits divisibility:
the arriving job is spread over all the machines able to serve it so that it
completes as early as possible (a water-filling over the machines' earliest
availability dates).
"""

from __future__ import annotations

from typing import Sequence

import math

import numpy as np

from repro.core.job import Job
from repro.simulation.state import SchedulerState
from repro.schedulers.base import PlanBasedScheduler, PlanSegment

__all__ = ["MCTScheduler", "MCTDivScheduler"]


class MCTScheduler(PlanBasedScheduler):
    """Minimum completion time, whole job on a single machine."""

    name = "MCT"

    def on_arrival(self, state: SchedulerState, job: Job) -> None:
        self._place(state, job.job_id, job.size, state.time)

    def rebuild_after_availability(
        self, state: SchedulerState, downs: Sequence[int], ups: Sequence[int]
    ) -> None:
        # The greedy choice is re-run for the remaining work of every active
        # job (in release order); a job whose eligible machines are all down
        # stays unplanned and parks until an UP transition re-triggers this.
        for runtime in state.active_jobs():
            self._place(state, runtime.job_id, runtime.remaining, state.time)

    def _place(self, state: SchedulerState, job_id: int, work: float, now: float) -> None:
        machines = list(state.available_eligible(job_id))
        if not machines:
            return
        count = len(machines)
        available = np.fromiter(
            (self.plan_horizon(m.machine_id, now) for m in machines),
            np.float64,
            count=count,
        )
        cycle_times = np.fromiter(
            (m.cycle_time for m in machines), np.float64, count=count
        )
        index, best_completion = _mct_argmin_completion(
            available, cycle_times, now, work
        )
        if index < 0:  # pragma: no cover - count > 0 guarantees a winner
            raise RuntimeError(f"no eligible machine for job {job_id}")
        best_machine = machines[index]
        start = max(float(available[index]), now)
        self.extend_plan(
            [
                PlanSegment(
                    machine_id=best_machine.machine_id,
                    job_id=job_id,
                    start=start,
                    end=best_completion,
                )
            ]
        )


class MCTDivScheduler(PlanBasedScheduler):
    """Minimum completion time exploiting divisibility (still non-preemptive)."""

    name = "MCT-Div"

    def on_arrival(self, state: SchedulerState, job: Job) -> None:
        self._place(state, job.job_id, job.size, state.time)

    def rebuild_after_availability(
        self, state: SchedulerState, downs: Sequence[int], ups: Sequence[int]
    ) -> None:
        for runtime in state.active_jobs():
            self._place(state, runtime.job_id, runtime.remaining, state.time)

    def _place(self, state: SchedulerState, job_id: int, work: float, now: float) -> None:
        machines = list(state.available_eligible(job_id))
        if not machines:
            return
        count = len(machines)
        availability = np.fromiter(
            (max(self.plan_horizon(m.machine_id, now), now) for m in machines),
            np.float64,
            count=count,
        )
        speeds = np.fromiter((m.speed for m in machines), np.float64, count=count)
        completion = _water_filling_completion(work, speeds, availability)
        segments = []
        for i, machine in enumerate(machines):
            available = float(availability[i])
            if completion > available + 1e-15:
                segments.append(
                    PlanSegment(
                        machine_id=machine.machine_id,
                        job_id=job_id,
                        start=available,
                        end=completion,
                    )
                )
        self.extend_plan(segments)


def _mct_argmin_completion(
    available: np.ndarray, cycle_times: np.ndarray, now: float, size: float
) -> tuple[int, float]:
    """MCT's champion scan: earliest-completing eligible machine.

    Returns ``(index, completion)`` where ``completion = max(available[i],
    now) + size * cycle_times[i]`` and a candidate only displaces the
    incumbent when it wins by more than 1e-15.  Returns ``(-1, inf)`` on
    empty input (the caller rejects that case).
    """
    # The 1e-15 acceptance band makes the scan a loop-carried chain, which is
    # *not* a plain argmin when several completions fall within the band of
    # each other.  But when the minimum wins by more than 1e-15 over every
    # other completion the chain provably ends on it (any earlier champion is
    # beaten by it, and no later candidate can displace the minimum), so the
    # vectorized argmin is exact; any band tie falls back to the scan.
    completions = np.maximum(available, now) + size * cycle_times
    if completions.size == 0:
        return -1, math.inf
    best = int(np.argmin(completions))
    value = completions[best]
    if int(np.count_nonzero(completions <= value + 1e-15)) == 1:
        return best, float(value)
    return _mct_argmin_completion_loop(available, cycle_times, now, size)


def _mct_argmin_completion_loop(
    available: np.ndarray, cycle_times: np.ndarray, now: float, size: float
) -> tuple[int, float]:
    """The sequential champion scan of :func:`_mct_argmin_completion`."""
    best_index = -1
    best_completion = math.inf
    for i in range(available.size):
        completion = max(available[i], now) + size * cycle_times[i]
        if completion < best_completion - 1e-15:
            best_completion = completion
            best_index = i
    return best_index, float(best_completion)


def _water_filling_completion(
    work: float, speeds: np.ndarray, availability: np.ndarray
) -> float:
    """Earliest common completion date of ``work`` spread over the machines.

    Machine ``i`` becomes available at ``availability[i]`` and then processes
    at ``speeds[i]``; the job completes at the smallest ``T`` such that
    ``sum_i speeds[i] * max(0, T - availability[i]) = work`` -- a sweep in
    earliest-availability order.  The remaining work is consumed along a
    loop-carried subtraction chain, so the sweep stays a sequential loop.
    """
    if speeds.size == 0:
        raise ValueError("at least one machine is required")
    order = sorted(range(len(speeds)), key=lambda i: availability[i])
    active_speed = 0.0
    remaining = work
    current = availability[order[0]]
    for idx in order:
        # Advance from the previous availability date to this one using the
        # machines already active.
        gap = availability[idx] - current
        if gap > 0 and active_speed > 0:
            doable = active_speed * gap
            if doable >= remaining:
                return float(current + remaining / active_speed)
            remaining -= doable
            current = availability[idx]
        else:
            current = max(current, availability[idx])
        active_speed += speeds[idx]
    return float(current + remaining / active_speed)
