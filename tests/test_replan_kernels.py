"""Bit-equality of the replan kernels against their legacy loops.

The per-replan python of the LP layer -- milestone merging
(:mod:`repro.lp.milestones`), interval-boundary ordering
(:mod:`repro.lp.intervals`), ``JobTable`` delta application
(:mod:`repro.lp.problem`) and the System (1) capacity scatter
(:mod:`repro.lp.maxstretch`) -- runs as private numpy kernels beside their
call sites.  Each one is checked here against a sequential legacy loop on
randomized inputs with injected near-duplicates and exact ties, and on
fixed boundary inputs (empty arrays, full ties, tolerance edges).  The
merge's fallback loop lives beside it in ``src``; the other legacy loops
are the historical pure python, kept in this file as oracles.  Equality is exact (``==`` on every
element).  A second check covers the integration level: whole-run S*
trajectories and completions are identical with every array program
replaced by its reference loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.lp import intervals, maxstretch, milestones, problem
from repro.schedulers.registry import make_scheduler
from repro.simulation.engine import simulate
from repro.workload.generator import PlatformSpec, WorkloadSpec, generate_instance

#: Randomized trials per kernel.
N_TRIALS = 25


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


# -- reference loops (the historical pure python) ------------------------------------


def _order_affine_boundaries_reference(
    consts: np.ndarray, coefs: np.ndarray, probe: float
) -> tuple[np.ndarray, np.ndarray]:
    """Dict dedup in first-occurrence order, then a python sort on the full key."""
    seen: dict[tuple[float, float], int] = {}
    uniq: list[tuple[float, float]] = []
    for const, coef in zip(consts.tolist(), coefs.tolist()):
        key = (const, coef)
        if key not in seen:
            seen[key] = len(uniq)
            uniq.append(key)
    order = sorted(
        range(len(uniq)),
        key=lambda i: (uniq[i][0] + uniq[i][1] * probe, uniq[i][1], uniq[i][0]),
    )
    out_consts = np.array([uniq[i][0] for i in order], dtype=np.float64)
    out_coefs = np.array([uniq[i][1] for i in order], dtype=np.float64)
    return out_consts, out_coefs


def _active_jobs_delta_reference(
    releases: np.ndarray, factors: np.ndarray, rem: np.ndarray, now: float | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The per-row active-job filter."""
    idx_list: list[int] = []
    earliest: list[float] = []
    works: list[float] = []
    for i in range(releases.size):
        value = rem[i]
        if value <= 0.0:
            continue
        idx_list.append(i)
        release = releases[i]
        earliest.append(release if now is None else max(release, now))
        works.append(float(value))
    idx = np.array(idx_list, dtype=np.int64)
    return (
        idx,
        np.array(earliest, dtype=np.float64),
        np.array(works, dtype=np.float64),
        releases[idx],
        factors[idx],
    )


def _scatter_capacity_sys1_reference(
    entry_rows: np.ndarray,
    entry_cols: np.ndarray,
    len_const: np.ndarray,
    len_coef: np.ndarray,
    speeds: np.ndarray,
    offset: int,
    f_var: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The capacity block built entry by entry, then row by row."""
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for e in range(entry_cols.size):
        rows.append(int(entry_rows[e]))
        cols.append(int(entry_cols[e]) + offset)
        vals.append(1.0)
    rhs = np.empty(speeds.size, dtype=np.float64)
    for r in range(speeds.size):
        rhs[r] = speeds[r] * len_const[r]
        coef = -(speeds[r] * len_coef[r])
        if coef != 0.0:
            rows.append(r)
            cols.append(f_var)
            vals.append(coef)
    return (
        np.array(rows, dtype=np.int64),
        np.array(cols, dtype=np.int64),
        np.array(vals, dtype=np.float64),
        rhs,
    )


#: name -> (module, array program, reference loop).
_FOLDED = {
    "merge_close_milestones": (
        milestones, "_merge_close_milestones", milestones._merge_close_milestones_loop
    ),
    "order_affine_boundaries": (
        intervals, "_order_affine_boundaries", _order_affine_boundaries_reference
    ),
    "active_jobs_delta": (problem, "_active_jobs_delta", _active_jobs_delta_reference),
    "scatter_capacity_sys1": (
        maxstretch, "_scatter_capacity_sys1", _scatter_capacity_sys1_reference
    ),
}
NAMES = tuple(_FOLDED)


# -- randomized cases ----------------------------------------------------------------


def _case_merge_close_milestones(rng):
    n = int(rng.integers(1, 40))
    values = np.sort(rng.uniform(0.0, 50.0, size=n))
    # Inject near-duplicate clusters so the merge path actually fires.
    if n > 3 and rng.random() < 0.7:
        dup = values[rng.integers(0, n, size=max(1, n // 4))]
        jitter = dup * (1.0 + rng.uniform(-1e-13, 1e-13, size=dup.size))
        values = np.sort(np.concatenate([values, dup, jitter]))
    tol = float(rng.choice([1e-12, 1e-9, 1e-6]))
    return (values, tol)


def _case_order_affine_boundaries(rng):
    n = int(rng.integers(0, 30))
    consts = rng.uniform(0.0, 20.0, size=n)
    coefs = rng.uniform(0.0, 5.0, size=n)
    if n > 2:
        # Exact duplicate pairs and probe-value ties exercise the dedup and
        # the tie-breaking components of the sort key.
        take = rng.integers(0, n, size=n // 2)
        consts = np.concatenate([consts, consts[take]])
        coefs = np.concatenate([coefs, coefs[take]])
    probe = float(rng.uniform(0.5, 10.0))
    return (consts, coefs, probe)


def _case_active_jobs_delta(rng):
    n = int(rng.integers(1, 50))
    releases = np.sort(rng.uniform(0.0, 30.0, size=n))
    factors = rng.uniform(0.1, 4.0, size=n)
    rem = rng.uniform(0.0, 10.0, size=n)
    rem[rng.random(size=n) < 0.4] = 0.0  # completed jobs drop out
    now = float(rng.uniform(0.0, 30.0))
    has_now = bool(rng.random() < 0.8)
    return (releases, factors, rem, now if has_now else None)


def _case_scatter_capacity_sys1(rng):
    n_rows = int(rng.integers(1, 12))
    n_entries = int(rng.integers(0, 60))
    entry_rows = rng.integers(0, n_rows, size=n_entries).astype(np.int64)
    entry_cols = rng.integers(0, 80, size=n_entries).astype(np.int64)
    len_const = rng.uniform(0.0, 5.0, size=n_rows)
    len_coef = rng.uniform(0.0, 2.0, size=n_rows)
    len_coef[rng.random(size=n_rows) < 0.3] = 0.0  # fixed-length intervals
    speeds = rng.uniform(0.5, 8.0, size=n_rows)
    offset = int(rng.integers(0, 10))
    f_var = int(rng.integers(100, 200))
    return (entry_rows, entry_cols, len_const, len_coef, speeds, offset, f_var)


_CASE_BUILDERS = {
    "merge_close_milestones": _case_merge_close_milestones,
    "order_affine_boundaries": _case_order_affine_boundaries,
    "active_jobs_delta": _case_active_jobs_delta,
    "scatter_capacity_sys1": _case_scatter_capacity_sys1,
}


def _f(*values: float) -> np.ndarray:
    return np.array(values, dtype=np.float64)


def _ids(*values: int) -> np.ndarray:
    return np.array(values, dtype=np.int64)


#: Fixed boundary inputs the randomized builders reach rarely or never: empty
#: and single-element arrays, exact duplicates, full ties and values sitting
#: exactly on a tolerance boundary.
_EDGE_CASES = {
    "merge_close_milestones": [
        (_f(5.0), 1e-12),
        (_f(2.0, 2.0, 2.0), 1e-12),  # one exact cluster
        (_f(0.0, 1e-13, 2e-13), 1e-12),  # near zero: absolute tolerance
        (_f(1.0, 1.0 + 6e-13, 1.0 + 1.2e-12), 1e-12),  # chain to the last kept value
    ],
    "order_affine_boundaries": [
        (_f(), _f(), 1.0),
        (_f(3.0, 3.0), _f(1.0, 1.0), 2.0),  # exact duplicate pair
        (_f(5.0, 3.0, 1.0), _f(0.0, 1.0, 2.0), 2.0),  # equal value at the probe
    ],
    "active_jobs_delta": [
        (_f(), _f(), _f(), 1.0),
        (_f(0.0, 1.0), _f(1.0, 2.0), _f(0.0, 0.0), 1.0),  # every job done
        (_f(2.0, 5.0), _f(1.0, 2.0), _f(3.0, 1.0), None),  # no clamp date
        (_f(2.0, 5.0), _f(1.0, 2.0), _f(3.0, 1.0), 0.0),  # date before every release
    ],
    "scatter_capacity_sys1": [
        (_ids(), _ids(), _f(1.0, 2.0), _f(0.0, 0.0), _f(1.0, 3.0), 0, 9),
        (_ids(0, 0), _ids(4, 2), _f(1.5), _f(0.5), _f(2.0), 3, 40),
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
    module, attr, reference = _FOLDED[name]
    candidate = getattr(module, attr)
    for trial in range(N_TRIALS):
        seed = 1000 * trial + NAMES.index(name)
        args = _CASE_BUILDERS[name](_rng(seed))
        _assert_bit_equal(candidate(*args), reference(*args))


def test_every_kernel_has_edge_cases():
    assert set(_EDGE_CASES) == set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_kernel_edge_cases_bit_equal_to_legacy(name):
    module, attr, reference = _FOLDED[name]
    candidate = getattr(module, attr)
    for args in _EDGE_CASES[name]:
        _assert_bit_equal(candidate(*args), reference(*args))


def test_whole_run_bit_identical_to_legacy_loops(monkeypatch):
    platform_spec = PlatformSpec(
        n_clusters=2, processors_per_cluster=4, n_databanks=2, availability=0.6
    )
    workload_spec = WorkloadSpec(density=2.0, window=25.0, max_jobs=12)
    instance = generate_instance(platform_spec, workload_spec, rng=21)

    def run():
        scheduler = make_scheduler("online")
        result = simulate(instance, scheduler)
        return scheduler.last_objective, result.completions

    candidate = run()
    for module, attr, reference in _FOLDED.values():
        monkeypatch.setattr(module, attr, reference)
    reference = run()
    assert candidate[0] == reference[0]
    assert candidate[1] == reference[1]
