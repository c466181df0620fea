"""Bit-equality of the heuristic-scheduler kernels against their legacy loops.

Mirror of ``tests/test_replan_kernels.py`` for the heuristic schedulers:
MCT's champion scan and MCT-Div's water filling (:mod:`repro.schedulers.mct`),
the plan-horizon scan and the ``(priority, job_id)`` ranking
(:mod:`repro.schedulers.base`), Bender02's pseudo-stretch keys
(:mod:`repro.schedulers.bender02`) and Bender98's deadline expansion (one
array expression inlined in :mod:`repro.schedulers.bender98`).  Each is
checked against a sequential reference loop on randomized inputs -- with
deliberate exact ties and tolerance-band near-ties injected so the fallback
branches actually fire -- and on fixed boundary inputs (empty arrays, full
ties, values on a tolerance edge).  MCT's fallback loop lives beside it in
``src``; the other references are the historical pure-python loops, kept in
this file as oracles.  Equality is exact (``==`` on every element).  A second check
covers the integration level: whole-run completions of every heuristic
scheduler are identical with every array program replaced by its
reference loop.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.schedulers import base, bender02, mct
from repro.schedulers.registry import make_scheduler
from repro.simulation.engine import simulate
from repro.workload.generator import PlatformSpec, WorkloadSpec, generate_instance

#: Randomized trials per kernel.
N_TRIALS = 25

#: The heuristic (LP-free) schedulers whose event loops run this code.
HEURISTIC_KEYS = (
    "fcfs",
    "srpt",
    "spt",
    "swpt",
    "swrpt",
    "mct",
    "mct-div",
    "bender02",
    "bender98",
)


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


# -- reference loops (the historical pure python) ------------------------------------


def _water_filling_reference(work: float, speeds: np.ndarray, availability: np.ndarray) -> float:
    """The water-filling sweep over a stable mergesort availability order."""
    order = np.argsort(availability, kind="mergesort")
    active_speed = 0.0
    remaining = work
    current = availability[order[0]]
    for idx in order.tolist():
        gap = availability[idx] - current
        if gap > 0.0 and active_speed > 0.0:
            doable = active_speed * gap
            if doable >= remaining:
                return float(current + remaining / active_speed)
            remaining -= doable
            current = availability[idx]
        else:
            current = max(current, availability[idx])
        active_speed += speeds[idx]
    return float(current + remaining / active_speed)


def _plan_horizon_reference(starts: np.ndarray, ends: np.ndarray, time: float) -> float:
    """The chained scan over the machine's (start, end) segment pairs."""
    horizon = time
    for start, end in zip(starts.tolist(), ends.tolist()):
        if end <= horizon + 1e-12:
            continue
        if start > horizon + 1e-12:
            break
        horizon = end
    return float(horizon)


def _rank_by_priority_reference(priorities: np.ndarray, job_ids: np.ndarray) -> np.ndarray:
    """The ``sorted(..., key=(priority, job_id))`` list ranking."""
    order = sorted(range(priorities.size), key=lambda i: (priorities[i], job_ids[i]))
    return np.array(order, dtype=np.int64)


def _pseudo_stretch_priorities_reference(
    ages: np.ndarray, relative_sizes: np.ndarray, delta: float
) -> np.ndarray:
    """The per-job negated pseudo-stretch keys."""
    out = np.empty(ages.size, dtype=np.float64)
    for i in range(ages.size):
        if relative_sizes[i] <= math.sqrt(delta):
            out[i] = -(ages[i] / math.sqrt(delta))
        else:
            out[i] = -(ages[i] / delta)
    return out


def _expand_deadlines_reference(
    releases: np.ndarray, flow_factors: np.ndarray, scale: float
) -> np.ndarray:
    """The per-job deadline expansion ``release + scale * flow_factor``."""
    out = np.empty(releases.size, dtype=np.float64)
    for i in range(releases.size):
        out[i] = releases[i] + scale * flow_factors[i]
    return out


def _expand_deadlines_inline(
    releases: np.ndarray, flow_factors: np.ndarray, scale: float
) -> np.ndarray:
    """The expression ``Bender98Scheduler.on_arrival`` evaluates."""
    return releases + scale * flow_factors


#: name -> (module or None, array program attribute or function, reference loop).
_FOLDED = {
    "mct_argmin_completion": (
        mct, "_mct_argmin_completion", mct._mct_argmin_completion_loop
    ),
    "water_filling_completion": (mct, "_water_filling_completion", _water_filling_reference),
    "plan_horizon_scan": (base, "_plan_horizon_scan", _plan_horizon_reference),
    "rank_by_priority": (base, "_rank_by_priority", _rank_by_priority_reference),
    "pseudo_stretch_priorities": (
        bender02, "_pseudo_stretch_priorities", _pseudo_stretch_priorities_reference
    ),
    "expand_deadlines": (None, _expand_deadlines_inline, _expand_deadlines_reference),
}
NAMES = tuple(_FOLDED)


# -- randomized cases ----------------------------------------------------------------


def _case_mct_argmin_completion(rng):
    n = int(rng.integers(0, 25))
    available = rng.uniform(0.0, 30.0, size=n)
    cycle_times = rng.uniform(0.05, 4.0, size=n)
    if n > 2 and rng.random() < 0.7:
        # Duplicate (available, cycle_time) pairs produce exact completion
        # ties, and 1e-16 jitter produces tolerance-band near-ties: both
        # force the vectorized scan off its unique-winner fast path onto the
        # sequential champion chain.
        take = rng.integers(0, n, size=n // 2)
        jitter = 1.0 + rng.uniform(-1e-16, 1e-16, size=take.size)
        available = np.concatenate([available, available[take]])
        cycle_times = np.concatenate([cycle_times, cycle_times[take] * jitter])
    now = float(rng.uniform(0.0, 30.0))
    size = float(rng.uniform(0.1, 10.0))
    return (available, cycle_times, now, size)


def _case_water_filling_completion(rng):
    n = int(rng.integers(1, 20))
    speeds = rng.uniform(0.2, 5.0, size=n)
    availability = rng.uniform(0.0, 20.0, size=n)
    if n > 2 and rng.random() < 0.6:
        # Duplicate availability dates: the earliest-availability order is
        # then tie-broken by position, which must match between the stable
        # tuple sort and the reference's mergesort argsort.
        take = rng.integers(0, n, size=n // 2)
        speeds = np.concatenate([speeds, rng.uniform(0.2, 5.0, size=take.size)])
        availability = np.concatenate([availability, availability[take]])
    work = float(rng.uniform(0.01, 50.0))
    return (work, speeds, availability)


def _case_plan_horizon_scan(rng):
    n = int(rng.integers(0, 20))
    starts = np.empty(n, dtype=np.float64)
    ends = np.empty(n, dtype=np.float64)
    cursor = float(rng.uniform(0.0, 5.0))
    for i in range(n):
        # Mix exact back-to-back segments, sub-tolerance slivers and real
        # gaps, so the scan's continue/chain/break arms all fire.
        gap = float(rng.choice([0.0, 5e-13, 1e-9, 0.8]))
        starts[i] = cursor + gap
        ends[i] = starts[i] + float(rng.uniform(0.05, 3.0))
        cursor = ends[i]
    time = float(rng.uniform(0.0, 10.0))
    return (starts, ends, time)


def _case_rank_by_priority(rng):
    n = int(rng.integers(0, 40))
    priorities = rng.uniform(0.0, 10.0, size=n)
    if n > 2:
        # Duplicate priorities exercise the job-id tie-break; inf and the
        # 1e18-offset sentinels mimic EDF's "no deadline" keys.
        take = rng.integers(0, n, size=n // 2)
        priorities[take] = priorities[(take + 1) % n]
        priorities[rng.integers(0, n)] = np.inf
        priorities[rng.integers(0, n)] = 1e18 + float(rng.uniform(0.0, 30.0))
    job_ids = rng.permutation(n).astype(np.int64)
    return (priorities, job_ids)


def _case_pseudo_stretch_priorities(rng):
    n = int(rng.integers(0, 40))
    delta = float(rng.uniform(1.0, 50.0))
    ages = rng.uniform(0.0, 20.0, size=n)
    relative_sizes = rng.uniform(1.0, delta, size=n)
    if n > 0:
        # Pin some sizes exactly at sqrt(delta): the <= boundary of the
        # branch selection.
        boundary = rng.random(size=n) < 0.3
        relative_sizes[boundary] = np.sqrt(delta)
    return (ages, relative_sizes, delta)


def _case_expand_deadlines(rng):
    n = int(rng.integers(0, 40))
    releases = np.sort(rng.uniform(0.0, 30.0, size=n))
    flow_factors = rng.uniform(0.1, 10.0, size=n)
    scale = float(rng.uniform(0.5, 20.0))
    return (releases, flow_factors, scale)


_CASE_BUILDERS = {
    "mct_argmin_completion": _case_mct_argmin_completion,
    "water_filling_completion": _case_water_filling_completion,
    "plan_horizon_scan": _case_plan_horizon_scan,
    "rank_by_priority": _case_rank_by_priority,
    "pseudo_stretch_priorities": _case_pseudo_stretch_priorities,
    "expand_deadlines": _case_expand_deadlines,
}


def _f(*values: float) -> np.ndarray:
    return np.array(values, dtype=np.float64)


def _ids(*values: int) -> np.ndarray:
    return np.array(values, dtype=np.int64)


#: Fixed boundary inputs the randomized builders reach rarely or never: empty
#: and single-element arrays, all-tied keys and values sitting exactly on a
#: tolerance or branch boundary.
_EDGE_CASES = {
    "mct_argmin_completion": [
        (_f(), _f(), 0.0, 1.0),  # no machine: (-1, inf)
        (_f(3.0), _f(0.5), 0.0, 2.0),
        (_f(1.0, 1.0, 1.0), _f(2.0, 2.0, 2.0), 0.0, 1.0),  # exact tie: first wins
        (_f(0.0, 5.0), _f(1.0, 1.0), 10.0, 1.0),  # both idle before now
    ],
    "water_filling_completion": [
        (2.0, _f(1.5), _f(4.0)),
        (0.0, _f(1.0, 2.0), _f(3.0, 1.0)),  # no work: earliest availability
        (6.0, _f(1.0, 2.0, 3.0), _f(2.0, 2.0, 2.0)),  # simultaneous start
    ],
    "plan_horizon_scan": [
        (_f(), _f(), 4.0),  # empty plan: free at once
        (_f(0.0), _f(4.0), 4.0),  # segment ends exactly at the query date
        (_f(4.0 + 1e-12), _f(6.0), 4.0),  # starts on the tolerance edge
        (_f(1.0, 2.0), _f(2.0, 3.0), 0.0),  # plan starts later: free now
    ],
    "rank_by_priority": [
        (_f(), _ids()),
        (_f(2.0, 2.0, 2.0), _ids(7, 3, 5)),  # all tied: job-id order
        (_f(np.inf, 1.0, np.inf), _ids(4, 9, 2)),
    ],
    "pseudo_stretch_priorities": [
        (_f(), _f(), 4.0),
        (_f(3.0), _f(2.0), 4.0),  # size exactly sqrt(delta): short-job branch
        (_f(0.0, 5.0), _f(1.0, 1.0), 1.0),  # delta == 1: both branches agree
    ],
    "expand_deadlines": [
        (_f(), _f(), 2.0),
        (_f(0.0, 3.0), _f(1.0, 2.0), 0.0),
    ],
}


def _assert_bit_equal(actual, expected):
    if isinstance(expected, tuple):
        assert isinstance(actual, tuple) and len(actual) == len(expected)
        for a, e in zip(actual, expected):
            _assert_bit_equal(a, e)
    elif isinstance(expected, np.ndarray):
        assert np.asarray(actual).shape == expected.shape
        assert np.array_equal(np.asarray(actual), expected)
    else:
        assert actual == expected


def test_every_kernel_has_a_case_builder():
    assert set(_CASE_BUILDERS) == set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_kernel_bit_equal_to_legacy(name):
    module, candidate, reference = _FOLDED[name]
    if module is not None:
        candidate = getattr(module, candidate)
    for trial in range(N_TRIALS):
        seed = 1000 * trial + NAMES.index(name)
        args = _CASE_BUILDERS[name](_rng(seed))
        _assert_bit_equal(candidate(*args), reference(*args))


def test_every_kernel_has_edge_cases():
    assert set(_EDGE_CASES) == set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_kernel_edge_cases_bit_equal_to_legacy(name):
    module, candidate, reference = _FOLDED[name]
    if module is not None:
        candidate = getattr(module, candidate)
    for args in _EDGE_CASES[name]:
        _assert_bit_equal(candidate(*args), reference(*args))


def test_whole_run_bit_identical_to_legacy_loops(monkeypatch):
    platform_spec = PlatformSpec(
        n_clusters=3, processors_per_cluster=4, n_databanks=3, availability=0.6
    )
    workload_spec = WorkloadSpec(density=2.0, window=25.0, max_jobs=15)
    instance = generate_instance(platform_spec, workload_spec, rng=33)

    def run():
        completions = {}
        for key in HEURISTIC_KEYS:
            options = {"max_jobs_per_resolution": 8} if key == "bender98" else {}
            scheduler = make_scheduler(key, **options)
            completions[key] = simulate(instance, scheduler).completions
        return completions

    candidate = run()
    for module, attr, reference in _FOLDED.values():
        if module is not None:
            monkeypatch.setattr(module, attr, reference)
    assert run() == candidate
