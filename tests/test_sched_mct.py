"""Tests for the MCT / MCT-Div greedy strategies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.instance import Instance
from repro.core.job import Job
from repro.core.platform import Machine, Platform
from repro.schedulers.mct import MCTDivScheduler, MCTScheduler, _water_filling_completion
from repro.simulation.engine import simulate


def _a(*values: float) -> np.ndarray:
    return np.array(values, dtype=np.float64)


@pytest.fixture
def two_speed_platform() -> Platform:
    return Platform.uniform([1.0, 0.5], databanks=["db"])  # speeds 1 and 2


class TestWaterFilling:
    def test_all_machines_available_immediately(self):
        # Speeds 1 and 2, both available at t=0, work 6 -> T = 2.
        assert _water_filling_completion(6.0, _a(1.0, 2.0), _a(0.0, 0.0)) == pytest.approx(2.0)

    def test_staggered_availability(self):
        # Machine A (speed 1) free at 0, machine B (speed 1) free at 4, work 6:
        # A alone does 4 units by t=4, remaining 2 split over 2 machines -> T=5.
        assert _water_filling_completion(6.0, _a(1.0, 1.0), _a(0.0, 4.0)) == pytest.approx(5.0)

    def test_single_machine(self):
        assert _water_filling_completion(3.0, _a(2.0), _a(1.0)) == pytest.approx(2.5)

    def test_later_machine_not_used_when_done_before(self):
        # Work 1 on a speed-1 machine available at 0 finishes at 1, before the
        # second machine (available at 10) could even start.
        assert _water_filling_completion(1.0, _a(1.0, 5.0), _a(0.0, 10.0)) == pytest.approx(1.0)

    def test_requires_at_least_one_machine(self):
        with pytest.raises(ValueError):
            _water_filling_completion(1.0, _a(), _a())


class TestMCT:
    def test_chooses_fastest_machine_when_idle(self, two_speed_platform):
        instance = Instance([Job(0, release=0.0, size=4.0, databank="db")], two_speed_platform)
        result = simulate(instance, MCTScheduler())
        # Machine 1 has speed 2 -> completes at 2 (machine 0 would need 4).
        assert result.completions[0] == pytest.approx(2.0)
        assert result.schedule.machine_ids() == {1}

    def test_never_splits_jobs(self, two_speed_platform):
        jobs = [Job(i, release=0.0, size=4.0, databank="db") for i in range(3)]
        instance = Instance(jobs, two_speed_platform)
        result = simulate(instance, MCTScheduler())
        for job in jobs:
            machines = {s.machine_id for s in result.schedule.slices_for_job(job.job_id)}
            assert len(machines) == 1

    def test_non_preemptive_decisions_are_final(self, two_speed_platform):
        # A long job goes to the fast machine; a tiny job arriving just after
        # must wait for it there or use the slow machine -- MCT never revisits.
        jobs = [
            Job(0, release=0.0, size=20.0, databank="db"),
            Job(1, release=0.1, size=1.0, databank="db"),
        ]
        instance = Instance(jobs, two_speed_platform)
        result = simulate(instance, MCTScheduler())
        # Job 0 on machine 1 finishes at 10; job 1's options: machine 1 after
        # job 0 (10 + 0.5) or machine 0 alone (0.1 + 1.0) -> machine 0.
        assert result.completions[0] == pytest.approx(10.0)
        assert result.completions[1] == pytest.approx(1.1)

    def test_small_job_stretched_behind_large_one(self):
        """The failure mode highlighted in Section 5.3."""
        platform = Platform.single_machine(1.0, databanks=["db"])
        jobs = [
            Job(0, release=0.0, size=100.0, databank="db"),
            Job(1, release=1.0, size=1.0, databank="db"),
        ]
        instance = Instance(jobs, platform)
        result = simulate(instance, MCTScheduler())
        stretches = result.stretches()
        assert stretches[1] == pytest.approx(100.0)  # waits for the whole scan

    def test_respects_databank_availability(self):
        platform = Platform(
            [Machine(0, 1.0, 0, frozenset({"a"})), Machine(1, 0.1, 1, frozenset({"b"}))]
        )
        instance = Instance([Job(0, release=0.0, size=2.0, databank="a")], platform)
        result = simulate(instance, MCTScheduler())
        # The much faster machine 1 cannot be used.
        assert result.schedule.machine_ids() == {0}
        result.schedule.validate(instance)


class TestMCTDiv:
    def test_uses_all_machines_when_idle(self, two_speed_platform):
        instance = Instance([Job(0, release=0.0, size=6.0, databank="db")], two_speed_platform)
        result = simulate(instance, MCTDivScheduler())
        # Aggregate speed 3 -> completes at 2, using both machines.
        assert result.completions[0] == pytest.approx(2.0)
        assert result.schedule.machine_ids() == {0, 1}

    def test_beats_mct_on_single_large_job(self, two_speed_platform):
        instance = Instance([Job(0, release=0.0, size=6.0, databank="db")], two_speed_platform)
        mct = simulate(instance, MCTScheduler())
        mct_div = simulate(instance, MCTDivScheduler())
        assert mct_div.completions[0] < mct.completions[0]

    def test_still_non_preemptive(self, two_speed_platform):
        jobs = [
            Job(0, release=0.0, size=30.0, databank="db"),
            Job(1, release=0.5, size=1.0, databank="db"),
        ]
        instance = Instance(jobs, two_speed_platform)
        result = simulate(instance, MCTDivScheduler())
        # Job 0 occupies both machines until t=10; job 1 is appended after it
        # (completion 10 + 1/3) rather than preempting.
        assert result.completions[0] == pytest.approx(10.0)
        assert result.completions[1] == pytest.approx(10.0 + 1.0 / 3.0)

    def test_schedule_valid_on_restricted_platform(self, restricted_instance):
        result = simulate(restricted_instance, MCTDivScheduler())
        result.schedule.validate(restricted_instance)
