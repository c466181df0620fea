"""System (1): optimal max weighted flow / max-stretch (Section 4.3.1).

The off-line optimal maximum weighted flow is computed by

1. bracketing the optimum between a trivial lower bound (every job needs at
   least its ideal time) and a trivial upper bound (serial execution),
2. enumerating the *milestones* inside the bracket
   (:mod:`repro.lp.milestones`),
3. locating the first milestone interval on which the parametric linear
   program System (1) is feasible, and
4. returning that LP's minimizer, which is the global optimum because
   feasibility of "max weighted flow <= F" is monotone in ``F``.

Step 3 is a *certificate-guided parametric search*: because the deadline
right-hand sides are affine in the objective ``F``, the Farkas/dual-ray
certificate of an infeasible probe evaluates to an affine function
``g(F) = A + B F`` that every feasible objective must keep non-negative, so
a single infeasible solve refutes every milestone below ``-A/B`` and the
search jumps straight past them.  Symmetrically, a feasible probe whose LP
optimum lands *strictly inside* its milestone interval is already the global
optimum (monotone feasibility), so the downward confirmation probes of the
classical gallop are skipped outright.  Backends without certificate support
(the one-shot scipy path) degrade to the uncertified probe order; results
are identical either way, only the number of LPs actually solved changes
(``search="gallop"`` keeps the legacy gallop + bisection as a reference).

The LP works on *resources* (capability classes) rather than individual
machines; variables are the amounts of work ``x[t, c, j]`` of job ``j``
processed on resource ``c`` during elementary interval ``t``, plus the
objective ``F`` itself.  Constraints are exactly (1a)-(1e) of the paper:
interval/resource capacities (affine in ``F``), structural zeros outside the
[earliest start, deadline] window, and per-job completeness -- assembled as
whole numpy COO blocks from index arrays cached on the skeleton.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass
from typing import Mapping, MutableMapping, Sequence

import numpy as np

from repro.core.errors import InfeasibleError
from repro.lp.backends import (
    SolverBackend,
    WarmStartHint,
    note_certificate_skips,
    note_milestone_search,
    note_phase_assembly,
    note_phase_search,
)
from repro.lp.intervals import IntervalStructure, build_interval_structure
from repro.lp.milestones import enumerate_milestones
from repro.lp.problem import MaxStretchProblem
from repro.lp.solver import LinearProgramBuilder

__all__ = [
    "MaxStretchSolution",
    "ConstraintSkeleton",
    "SearchCertificate",
    "MilestoneSearchReport",
    "build_skeleton",
    "model_key",
    "warm_hint",
    "minimize_max_weighted_flow",
    "solve_on_objective_range",
]

#: Default milestone-search strategy: ``"certificate"`` (dual-ray guided
#: parametric search) or ``"gallop"`` (the legacy bidirectional gallop +
#: bisection, kept as the reference the certificate search is gated
#: against).  Overridable per call through ``minimize_max_weighted_flow``.
DEFAULT_SEARCH = "certificate"

#: Work amounts below this threshold (relative to the job's remaining work)
#: are dropped from the reported allocation.
_ALLOCATION_EPS = 1e-10


@dataclass(frozen=True)
class MaxStretchSolution:
    """A feasible (usually optimal) allocation achieving a given max weighted flow.

    Attributes
    ----------
    objective:
        The achieved maximum weighted flow :math:`\\mathcal{F}` (equals the
        max-stretch when stretch weights are used).
    problem:
        The problem that was solved.
    structure:
        The interval structure used by the LP.
    interval_bounds:
        The elementary intervals, evaluated at :attr:`objective`, as
        ``(start, end)`` pairs.
    allocations:
        Mapping ``(interval index, resource index, job id) -> work``.
    """

    objective: float
    problem: MaxStretchProblem
    structure: IntervalStructure
    interval_bounds: tuple[tuple[float, float], ...]
    allocations: dict[tuple[int, int, int], float]

    # -- lookups ---------------------------------------------------------------
    def deadline(self, job_id: int) -> float:
        """Deadline of the job at the achieved objective."""
        return self.problem.job_by_id(job_id).deadline(self.objective)

    def allocations_in_interval(self, interval: int) -> dict[tuple[int, int], float]:
        """``(resource, job) -> work`` allocations inside one interval."""
        return {
            (c, j): w
            for (t, c, j), w in self.allocations.items()
            if t == interval and w > 0
        }

    def work_for_job(self, job_id: int) -> float:
        """Total work allocated to the job across intervals and resources."""
        return float(
            sum(w for (t, c, j), w in self.allocations.items() if j == job_id)
        )

    def work_for_job_on_resource(self, job_id: int, resource: int) -> float:
        """Total work of the job allocated to one resource."""
        return float(
            sum(
                w
                for (t, c, j), w in self.allocations.items()
                if j == job_id and c == resource
            )
        )

    def completion_interval(self, job_id: int) -> int:
        """Index of the last interval in which the job receives work.

        Used by the Online-EGDF variant to build its global priority list.
        Raises :class:`KeyError` when the job receives no allocation.
        """
        indices = [t for (t, c, j), w in self.allocations.items() if j == job_id and w > 0]
        if not indices:
            raise KeyError(job_id)
        return max(indices)

    def completion_interval_on_resource(self, job_id: int, resource: int) -> int | None:
        """Last interval in which the job receives work on ``resource`` (None if never)."""
        indices = [
            t
            for (t, c, j), w in self.allocations.items()
            if j == job_id and c == resource and w > 0
        ]
        return max(indices) if indices else None

    def jobs_on_resource(self, resource: int) -> list[int]:
        """Job ids receiving any work on ``resource``."""
        return sorted(
            {j for (t, c, j), w in self.allocations.items() if c == resource and w > 0}
        )

    def max_weighted_flow_of_allocation(self) -> float:
        """The max weighted flow actually implied by the allocation.

        Every job completes no later than the end of its last allocation
        interval, so this is a (possibly pessimistic) certificate that the
        allocation achieves :attr:`objective`.
        """
        worst = 0.0
        for job in self.problem.jobs:
            try:
                t = self.completion_interval(job.job_id)
            except KeyError:
                continue
            completion = self.interval_bounds[t][1]
            worst = max(worst, (completion - job.release) / job.flow_factor)
        return worst


@dataclass(frozen=True)
class ConstraintSkeleton:
    """The structural part of a System (1)/(2) linear program.

    Everything here depends only on the interval structure and the jobs'
    eligible resources -- not on the objective bounds, the remaining works or
    the LP objective coefficients.  The on-line :class:`~repro.lp.incremental.
    ReplanContext` caches skeletons keyed by :attr:`signature` so that
    successive solves on the same milestone interval (e.g. the winning System
    (1) probe and the System (2) re-optimization that follows it) skip the
    variable-indexing and constraint-grouping work.

    Attributes
    ----------
    structure:
        The interval structure the skeleton was built on.
    keys:
        ``(interval, resource, job_id)`` for every variable, in the canonical
        order (job order of the problem, then interval, then resource).  The
        order matters: it pins the LP column order, keeping solver output
        bit-identical between the cached and the from-scratch paths.
    capacity_groups:
        ``((interval, resource), variable positions)`` sorted by (interval,
        resource) -- one capacity row (1d) each.
    completeness_groups:
        ``(job position in problem.jobs, variable positions)`` in job order --
        one completeness row (1e) each.
    signature:
        Hashable cache key: the boundary affines plus every job's
        (id, window, resources) tuple.
    """

    structure: IntervalStructure
    keys: tuple[tuple[int, int, int], ...]
    capacity_groups: tuple[tuple[tuple[int, int], tuple[int, ...]], ...]
    completeness_groups: tuple[tuple[int, tuple[int, ...]], ...]
    signature: tuple

    @property
    def n_variables(self) -> int:
        return len(self.keys)


def _skeleton_signature(problem: MaxStretchProblem, structure: IntervalStructure) -> tuple:
    boundaries = tuple((b.const, b.coef) for b in structure.boundaries)
    jobs = tuple(
        (
            job.job_id,
            structure.job_start_index[job.job_id],
            structure.job_deadline_index[job.job_id],
            job.resources,
        )
        for job in problem.jobs
    )
    return (boundaries, jobs)


def build_skeleton(
    problem: MaxStretchProblem,
    structure: IntervalStructure,
    cache: MutableMapping[tuple, "ConstraintSkeleton"] | None = None,
) -> ConstraintSkeleton | None:
    """Build (or fetch from ``cache``) the constraint skeleton for ``structure``.

    Returns ``None`` when some job has no interval to run in, i.e. its
    deadline does not lie strictly after its earliest start -- the quick
    structural infeasibility check of the milestone search.
    """
    for job in problem.jobs:
        if len(structure.job_intervals(job.job_id)) == 0:
            return None

    signature = _skeleton_signature(problem, structure)
    if cache is not None:
        cached = cache.get(signature)
        if cached is not None:
            return cached

    keys: list[tuple[int, int, int]] = []
    by_interval_resource: dict[tuple[int, int], list[int]] = {}
    by_job: list[tuple[int, tuple[int, ...]]] = []
    for pos_job, job in enumerate(problem.jobs):
        job_positions: list[int] = []
        for t in structure.job_intervals(job.job_id):
            for c in job.resources:
                position = len(keys)
                keys.append((t, c, job.job_id))
                by_interval_resource.setdefault((t, c), []).append(position)
                job_positions.append(position)
        by_job.append((pos_job, tuple(job_positions)))

    skeleton = ConstraintSkeleton(
        structure=structure,
        keys=tuple(keys),
        capacity_groups=tuple(
            (tc, tuple(positions))
            for tc, positions in sorted(by_interval_resource.items())
        ),
        completeness_groups=tuple(by_job),
        signature=signature,
    )
    if cache is not None:
        cache[signature] = skeleton
    return skeleton


def model_key(
    problem: MaxStretchProblem, skeleton: ConstraintSkeleton, tag: str
) -> tuple:
    """Persistence key for the LP built from ``skeleton`` (see backends).

    Two builders producing the same key are guaranteed to share the exact
    constraint matrix -- sparsity pattern *and* values: the variable/row
    layout is pinned by the skeleton's job windows and resource groups, the x
    coefficients are all 1, the F-column coefficients of System (1) are
    ``-speed * length.coef`` where the interval-length slopes derive from the
    boundary *slopes* only, and the resource speeds are keyed explicitly.
    The boundary constants (which move with the current time between replans)
    only enter the right-hand sides and the F bounds, which persistent
    backends delta-update.  ``tag`` separates the System (1) layout (leading
    F variable) from the System (2) layout (x variables only).
    """
    boundaries, jobs = skeleton.signature
    return (
        tag,
        tuple(coef for _const, coef in boundaries),
        jobs,
        tuple(r.speed for r in problem.resources),
    )


#: Stable column identity of the objective variable F in warm-start hints
#: (work-variable identities are non-negative bit-packed triples).
_F_COL_ID = -1


def warm_hint(
    problem: MaxStretchProblem,
    skeleton: ConstraintSkeleton,
    *,
    with_objective_var: bool,
) -> WarmStartHint:
    """Basis-transplant identities for the LP built from ``skeleton``.

    Work variables are identified by their ``(interval, resource, job)``
    triple, capacity rows by ``(interval, resource)`` and completeness rows
    by job id -- bit-packed into int64 so the backend's basis mapping stays
    vectorized.  Consecutive milestone probes (and the System (2) solve
    after the winning probe -- ``with_objective_var=False`` drops the F
    column) overlap on most identities, so the previous basis mapped through
    them is a near-optimal starting basis even though the matrices differ.
    All LPs of one search/replan sequence share a single series: the backend
    is per-context, so bases never leak across simulation runs.

    The id arrays are cached on the skeleton (which the
    :class:`~repro.lp.incremental.ReplanContext` skeleton cache already
    shares between the winning System (1) probe and the System (2) solve).
    """
    cache = skeleton.__dict__.get("_warm_ids")
    if cache is None:
        keys = skeleton.keys
        col_ids = np.fromiter(
            ((t << 36) | (c << 24) | j for t, c, j in keys),
            dtype=np.int64,
            count=len(keys),
        )
        n_caps = len(skeleton.capacity_groups)
        row_ids = np.fromiter(
            (
                (t << 12) | c
                for (t, c), _positions in skeleton.capacity_groups
            ),
            dtype=np.int64,
            count=n_caps,
        )
        job_rows = np.fromiter(
            (
                (1 << 60) | problem.jobs[pos_job].job_id
                for pos_job, _positions in skeleton.completeness_groups
            ),
            dtype=np.int64,
            count=len(skeleton.completeness_groups),
        )
        cache = (
            np.concatenate([np.array([_F_COL_ID], dtype=np.int64), col_ids]),
            col_ids,
            np.concatenate([row_ids, job_rows]),
        )
        # ConstraintSkeleton is frozen; stash the derived arrays directly in
        # its instance dict (pure cache, invisible to equality/signature).
        object.__setattr__(skeleton, "_warm_ids", cache)
    col_with_f, col_plain, row_ids = cache
    return WarmStartHint(
        series="milestone-lps",
        col_ids=col_with_f if with_objective_var else col_plain,
        row_ids=row_ids,
    )


class _AssemblyArrays:
    """Numpy index arrays deriving the COO constraint blocks from a skeleton.

    Everything here is a pure re-indexing of the skeleton's group tuples --
    problem-independent (speeds and remaining works are applied per solve),
    built once per skeleton and stashed in its instance dict (pure cache,
    like the warm-hint identities), so successive probes sharing a skeleton
    assemble their constraint matrices without any per-entry Python loop.
    """

    __slots__ = (
        "cap_entry_rows",
        "cap_entry_cols",
        "cap_c",
        "cap_len_const",
        "cap_len_coef",
        "comp_entry_rows",
        "comp_entry_cols",
        "comp_job_pos",
        "key_t",
        "key_jpos",
        "bnd_const",
        "bnd_coef",
    )

    def __init__(self, skeleton: "ConstraintSkeleton"):
        structure = skeleton.structure
        cap_groups = skeleton.capacity_groups
        n_cap = len(cap_groups)
        sizes = np.fromiter((len(p) for _tc, p in cap_groups), dtype=np.int64, count=n_cap)
        self.cap_entry_rows = np.repeat(np.arange(n_cap, dtype=np.int64), sizes)
        self.cap_entry_cols = np.fromiter(
            (p for _tc, ps in cap_groups for p in ps), dtype=np.int64, count=int(sizes.sum())
        )
        self.cap_c = np.fromiter((tc[1] for tc, _ps in cap_groups), dtype=np.int64, count=n_cap)
        lengths = [structure.interval_length(tc[0]) for tc, _ps in cap_groups]
        self.cap_len_const = np.fromiter(
            (ln.const for ln in lengths), dtype=np.float64, count=n_cap
        )
        self.cap_len_coef = np.fromiter(
            (ln.coef for ln in lengths), dtype=np.float64, count=n_cap
        )

        comp_groups = skeleton.completeness_groups
        n_comp = len(comp_groups)
        comp_sizes = np.fromiter(
            (len(p) for _pj, p in comp_groups), dtype=np.int64, count=n_comp
        )
        self.comp_entry_rows = np.repeat(np.arange(n_comp, dtype=np.int64), comp_sizes)
        self.comp_entry_cols = np.fromiter(
            (p for _pj, ps in comp_groups for p in ps),
            dtype=np.int64,
            count=int(comp_sizes.sum()),
        )
        self.comp_job_pos = np.fromiter(
            (pj for pj, _ps in comp_groups), dtype=np.int64, count=n_comp
        )

        n_keys = len(skeleton.keys)
        self.key_t = np.fromiter((t for t, _c, _j in skeleton.keys), dtype=np.int64, count=n_keys)
        self.key_jpos = np.empty(n_keys, dtype=np.int64)
        self.key_jpos[self.comp_entry_cols] = self.comp_job_pos[self.comp_entry_rows]

        boundaries = structure.boundaries
        self.bnd_const = np.fromiter(
            (b.const for b in boundaries), dtype=np.float64, count=len(boundaries)
        )
        self.bnd_coef = np.fromiter(
            (b.coef for b in boundaries), dtype=np.float64, count=len(boundaries)
        )


def _assembly_arrays(skeleton: ConstraintSkeleton) -> _AssemblyArrays:
    """The cached :class:`_AssemblyArrays` of ``skeleton`` (built on first use)."""
    cache = skeleton.__dict__.get("_assembly")
    if cache is None:
        cache = _AssemblyArrays(skeleton)
        object.__setattr__(skeleton, "_assembly", cache)
    return cache


def _scatter_capacity_sys1(
    entry_rows: np.ndarray,
    entry_cols: np.ndarray,
    len_const: np.ndarray,
    len_coef: np.ndarray,
    speeds: np.ndarray,
    offset: int,
    f_var: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Build the System (1) capacity block ``(rows, cols, vals, rhs)`` in COO form.

    The x entries carry coefficient 1 on their skeleton positions (shifted by
    ``offset``); the objective column ``f_var`` receives ``-speed *
    length.coef`` on rows where that is nonzero; the RHS is ``speed *
    length.const``.
    """
    x_vals = np.ones(entry_cols.size, dtype=np.float64)
    f_coefs = -(speeds * len_coef)
    nonzero = np.nonzero(f_coefs)[0]
    rows = np.concatenate([entry_rows, nonzero])
    cols = np.concatenate(
        [entry_cols + offset, np.full(nonzero.size, f_var, dtype=np.int64)]
    )
    vals = np.concatenate([x_vals, f_coefs[nonzero]])
    rhs = speeds * len_const
    return rows, cols, vals, rhs


def _assemble_constraints(
    builder: LinearProgramBuilder,
    problem: MaxStretchProblem,
    skeleton: ConstraintSkeleton,
    *,
    offset: int,
    f_var: int | None,
    objective_value: float | None,
) -> None:
    """Emit constraints (1d)/(1e) from a skeleton as vectorized COO blocks.

    ``offset`` is the index of the first x variable in the builder (1 when
    the objective variable ``F`` precedes them, 0 for fixed-objective
    solves); the row order (capacity rows sorted by (interval, resource),
    then completeness rows in job order), the sparsity pattern (zero ``F``
    coefficients dropped) and every coefficient value match the historical
    per-row builder exactly.
    """
    arrays = _assembly_arrays(skeleton)
    speeds = problem.resource_speeds()[arrays.cap_c]
    if f_var is not None:
        rows, cols, vals, rhs = _scatter_capacity_sys1(
            arrays.cap_entry_rows,
            arrays.cap_entry_cols,
            arrays.cap_len_const,
            arrays.cap_len_coef,
            speeds,
            offset,
            f_var,
        )
    else:
        assert objective_value is not None
        rows = arrays.cap_entry_rows
        cols = arrays.cap_entry_cols + offset
        vals = np.ones(arrays.cap_entry_cols.size, dtype=np.float64)
        rhs = speeds * np.maximum(
            0.0, arrays.cap_len_const + arrays.cap_len_coef * objective_value
        )
    builder.add_leq_block(rows, cols, vals, rhs)

    works = problem.remaining_works()
    builder.add_eq_block(
        arrays.comp_entry_rows,
        arrays.comp_entry_cols + offset,
        np.ones(arrays.comp_entry_cols.size, dtype=np.float64),
        works[arrays.comp_job_pos],
    )


@dataclass(frozen=True)
class SearchCertificate:
    """A Farkas certificate of a milestone probe, in re-evaluable form.

    The aggregated constraint of an infeasible System (1) probe reads

    .. math:: g(F) = A + B F
              = \\Big(\\underbrace{\\sum u\\, s\\, \\ell^{const}}_{capacity\\_const}
                + \\sum_j v_j W_j\\Big)
                + \\underbrace{\\sum u\\, s\\, \\ell^{coef}}_{capacity\\_coef}\\, F

    and every feasible objective satisfies ``g(F) >= 0``, so ``F >= -A/B``
    (for ``B > 0``) is a closed-form lower bound derived without solving any
    further LP.  Keeping the completeness multipliers ``v`` keyed by job id
    lets the :class:`~repro.lp.incremental.ReplanContext` *re-evaluate* the
    combination against the next replan's remaining works: the resulting
    bound is only a probe-order hint there (the interval structure moved
    with the clock), but it starts the next search already pruned.
    """

    capacity_const: float
    capacity_coef: float
    v_by_job: Mapping[int, float]

    def bound_for(self, works: Mapping[int, float]) -> float | None:
        """The certificate's objective lower bound for updated remaining works.

        Jobs absent from ``works`` (completed since the certificate was
        collected) drop out of the combination; returns ``None`` when the
        coefficient of ``F`` is too small to divide by.
        """
        if self.capacity_coef <= _RAY_COEF_EPS:
            return None
        load = sum(
            v * works[job_id] for job_id, v in self.v_by_job.items() if job_id in works
        )
        return -(self.capacity_const + load) / self.capacity_coef


@dataclass
class ProbeOutcome:
    """Mutable side channel filled by :func:`solve_on_objective_range`.

    ``certificate_bound``/``certificate`` are populated on infeasible probes
    whose backend produced a dual ray (persistent HiGHS); they stay ``None``
    on feasible probes and on certificate-less backends.
    """

    certificate_bound: float | None = None
    certificate: SearchCertificate | None = None


@dataclass
class MilestoneSearchReport:
    """Probe economy of one milestone search (filled when requested).

    Attributes
    ----------
    n_solved / n_skipped:
        LP probes actually solved vs milestone intervals eliminated without
        a solve (certificate jumps and the interior-optimum re-check).
    interior_exit:
        True when the search ended because the winning probe's optimum lay
        strictly inside its milestone interval (global optimality by
        monotone feasibility -- no downward confirmation probe needed).
    certificate:
        The strongest :class:`SearchCertificate` collected (highest bound),
        for cross-replan carry; ``None`` without certificate support.
    """

    n_solved: int = 0
    n_skipped: int = 0
    interior_exit: bool = False
    certificate: SearchCertificate | None = None


#: Coefficients of F below this threshold make a certificate bound
#: numerically meaningless (division blows up); such rays are discarded.
_RAY_COEF_EPS = 1e-12

#: Relative margin by which a feasible probe's optimum must clear its
#: interval's lower boundary before the interior-optimum short circuit
#: declares it globally optimal.  Must exceed the LP solvers' objective
#: tolerance (~1e-9) so a boundary optimum is never mistaken for an
#: interior one; at a true interior optimum the margin is the distance to
#: the previous milestone, orders of magnitude larger.
_INTERIOR_RTOL = 1e-7


def _probe_certificate(
    problem: MaxStretchProblem,
    skeleton: ConstraintSkeleton,
    dual_ray: np.ndarray,
    outcome: "ProbeOutcome",
) -> None:
    """Evaluate a dual ray as an affine function of F and fill ``outcome``."""
    n_cap = len(skeleton.capacity_groups)
    if dual_ray.size != n_cap + len(skeleton.completeness_groups):
        return
    arrays = _assembly_arrays(skeleton)
    u = dual_ray[:n_cap]
    v = dual_ray[n_cap:]
    cap_speed = problem.resource_speeds()[arrays.cap_c]
    certificate = SearchCertificate(
        capacity_const=float(u @ (cap_speed * arrays.cap_len_const)),
        capacity_coef=float(u @ (cap_speed * arrays.cap_len_coef)),
        v_by_job={
            job.job_id: float(v[pos]) for pos, job in enumerate(problem.jobs) if v[pos] != 0.0
        },
    )
    bound = certificate.bound_for(
        {job.job_id: job.remaining_work for job in problem.jobs}
    )
    if bound is None or not math.isfinite(bound):
        return
    outcome.certificate_bound = bound
    outcome.certificate = certificate


def solve_on_objective_range(
    problem: MaxStretchProblem,
    f_low: float,
    f_high: float,
    *,
    skeleton_cache: MutableMapping[tuple, ConstraintSkeleton] | None = None,
    backend: SolverBackend | None = None,
    outcome: ProbeOutcome | None = None,
) -> MaxStretchSolution | None:
    """Solve System (1) restricted to objective values in ``[f_low, f_high]``.

    Returns ``None`` when no feasible schedule exists with a maximum weighted
    flow in that range (the expected outcome for ranges below the optimum).
    ``skeleton_cache`` optionally reuses constraint skeletons across solves
    sharing the same interval structure (see :class:`ConstraintSkeleton`);
    ``backend`` selects the LP solver backend (persistent backends
    additionally reuse live solver models across probes sharing a skeleton
    pattern, keyed by :func:`model_key`).  ``outcome``, when provided,
    receives the infeasibility certificate of a refused probe (backends
    without dual-ray support leave it empty).
    """
    if not problem.jobs:
        return MaxStretchSolution(
            objective=0.0,
            problem=problem,
            structure=build_interval_structure(problem, 0.0),
            interval_bounds=(),
            allocations={},
        )
    if f_high < f_low:
        raise ValueError(f"invalid objective range [{f_low}, {f_high}]")

    assembly_start = time.perf_counter()
    probe = _probe_value(f_low, f_high)
    structure = build_interval_structure(problem, probe)
    skeleton = build_skeleton(problem, structure, skeleton_cache)
    if skeleton is None:
        note_phase_assembly(time.perf_counter() - assembly_start)
        return None

    builder = LinearProgramBuilder()
    f_var = builder.add_variable(objective=1.0, lower=f_low, upper=f_high, name="F")
    builder.add_variables(len(skeleton.keys))
    _assemble_constraints(
        builder, problem, skeleton, offset=1, f_var=f_var, objective_value=None
    )

    key = warm = None
    if backend is not None and backend.persistent:
        key = model_key(problem, skeleton, "sys1")
        warm = warm_hint(problem, skeleton, with_objective_var=True)
    note_phase_assembly(time.perf_counter() - assembly_start)
    result = builder.solve(backend=backend, key=key, warm=warm)
    if not result.feasible:
        if outcome is not None and result.dual_ray is not None:
            _probe_certificate(problem, skeleton, result.dual_ray, outcome)
        return None

    objective = result.value(f_var)
    allocations = _extract_allocations(problem, skeleton, 1, result.values)
    bounds = tuple(structure.bounds_at(objective))
    return MaxStretchSolution(
        objective=objective,
        problem=problem,
        structure=structure,
        interval_bounds=bounds,
        allocations=allocations,
    )


def minimize_max_weighted_flow(
    problem: MaxStretchProblem,
    *,
    max_milestones: int | None = None,
    warm_start: float | None = None,
    feasible_cap: float | None = None,
    skeleton_cache: MutableMapping[tuple, ConstraintSkeleton] | None = None,
    backend: SolverBackend | None = None,
    search: str | None = None,
    report: MilestoneSearchReport | None = None,
) -> MaxStretchSolution:
    """Compute the optimal max weighted flow (max-stretch) for ``problem``.

    Parameters
    ----------
    problem:
        The scheduling problem (off-line or an on-line re-optimization).
    max_milestones:
        Optional cap on the number of milestones considered (the list is
        thinned uniformly when longer).  The result is then an upper bound on
        the optimum, within the resolution of the retained milestones; the
        default (no cap) is exact.
    warm_start:
        Optional objective value expected to be close to the optimum
        (typically the previous replan's :math:`S^*`, possibly raised by a
        carried certificate bound, in the on-line heuristics).  The milestone
        search starts at the interval containing it.  Because feasibility is
        monotone in the objective, the result is *identical* to a cold
        search -- only the probe order changes.
    feasible_cap:
        Optional objective value the caller *knows* to be feasible for
        ``problem`` -- the feasible-side counterpart of the certificate
        lower bounds.  The on-line heuristics pass the previous replan's
        accepted :math:`S^*` when the active set only shrank since (less
        remaining work over a subset of the jobs keeps every feasible
        allocation feasible).  The search start is clamped down to the
        interval containing the cap, so the first probe is at worst the
        known-feasible interval and the search never gallops upward past
        it.  Like ``warm_start`` this changes probe order only, never the
        accepted optimum.
    skeleton_cache:
        Optional mapping reusing constraint skeletons across solves (see
        :class:`ConstraintSkeleton`).
    backend:
        LP solver backend; ``None`` uses the one-shot scipy default.  A
        persistent backend (``HighsPersistentBackend``) additionally reuses
        live solver models between probes sharing a skeleton pattern,
        warm-starts dual simplex from the previous basis, and produces the
        dual-ray certificates the search prunes with; results are equivalent
        within solver tolerance.
    search:
        ``"certificate"`` (dual-ray guided parametric search, the default)
        or ``"gallop"`` (the legacy bidirectional gallop + bisection);
        ``None`` resolves to :data:`DEFAULT_SEARCH`.  Both return the same
        optimum -- the certificate search solves fewer LPs.
    report:
        Optional :class:`MilestoneSearchReport` receiving the search's probe
        economy and its strongest certificate (for cross-replan carry).

    Raises
    ------
    InfeasibleError
        If no feasible schedule exists (cannot happen for well-formed
        problems: the trivial serial schedule is always feasible).
    """
    if not problem.jobs:
        return solve_on_objective_range(problem, 0.0, 0.0)  # type: ignore[return-value]

    search_start = time.perf_counter()
    f_lb = problem.objective_lower_bound()
    f_ub = problem.objective_upper_bound()
    milestones = enumerate_milestones(problem, lower=f_lb, upper=f_ub)
    if max_milestones is not None and len(milestones) > max_milestones:
        step = len(milestones) / max_milestones
        milestones = [milestones[int(i * step)] for i in range(max_milestones)]

    boundaries = [f_lb] + milestones + [f_ub]
    last = len(boundaries) - 2

    start_idx = 0
    if warm_start is not None and last > 0:
        start_idx = min(max(bisect.bisect_right(boundaries, warm_start) - 1, 0), last)
    if feasible_cap is not None and last > 0:
        start_idx = min(start_idx, _interval_of(boundaries, feasible_cap, 0, last))

    best = _search_first_feasible(
        problem,
        boundaries,
        start_idx,
        skeleton_cache=skeleton_cache,
        backend=backend,
        search=search,
        report=report,
    )

    if best is None:
        # The serial upper bound should always be feasible; if roundoff made
        # the last interval infeasible, retry with a widened bracket before
        # giving up.
        widened = solve_on_objective_range(
            problem, f_lb, 2.0 * f_ub + 1.0, skeleton_cache=skeleton_cache,
            backend=backend,
        )
        if widened is None:
            raise InfeasibleError(
                "no feasible schedule found for the max weighted flow problem"
            )
        best = widened
    note_phase_search(time.perf_counter() - search_start)
    return best


def _search_first_feasible(
    problem: MaxStretchProblem,
    boundaries: Sequence[float],
    start_idx: int,
    *,
    skeleton_cache: MutableMapping[tuple, ConstraintSkeleton] | None = None,
    backend: SolverBackend | None = None,
    search: str | None = None,
    report: MilestoneSearchReport | None = None,
) -> MaxStretchSolution | None:
    """Locate the first feasible milestone interval and return its optimum.

    Feasibility of "max weighted flow in [boundaries[i], boundaries[i+1]]" is
    monotone in the interval index ``i``, so the minimizer lives in the first
    feasible interval.  Two strategies find it -- ``"certificate"`` (default,
    :func:`_search_certificate`) and ``"gallop"`` (the legacy reference,
    :func:`_search_gallop`) -- with identical results by construction: a
    solution is only ever accepted when its own LP optimum proves global
    optimality or when the adjacent lower interval was solved infeasible.
    """
    mode = DEFAULT_SEARCH if search is None else search
    if mode == "certificate":
        return _search_certificate(
            problem, boundaries, start_idx,
            skeleton_cache=skeleton_cache, backend=backend, report=report,
        )
    if mode == "gallop":
        return _search_gallop(
            problem, boundaries, start_idx,
            skeleton_cache=skeleton_cache, backend=backend, report=report,
        )
    raise ValueError(f"unknown milestone search strategy {mode!r}")


def _interval_of(boundaries: Sequence[float], value: float, lo: int, hi: int) -> int:
    """Index of the milestone interval containing ``value``, clamped to [lo, hi]."""
    idx = bisect.bisect_right(boundaries, value) - 1
    return min(max(idx, lo), hi)


def _is_interior(solution: MaxStretchSolution, lower_boundary: float) -> bool:
    """Whether the probe's optimum lies strictly inside its milestone interval.

    By monotone feasibility this certifies *global* optimality: were any
    objective below the interval feasible, every objective above it would be
    too -- including the sub-optimum part of this interval, contradicting
    the LP's minimality.  The margin must only exceed the solver's objective
    tolerance (see :data:`_INTERIOR_RTOL`).
    """
    return solution.objective > lower_boundary + _INTERIOR_RTOL * max(1.0, abs(lower_boundary))


def _search_certificate(
    problem: MaxStretchProblem,
    boundaries: Sequence[float],
    start_idx: int,
    *,
    skeleton_cache: MutableMapping[tuple, ConstraintSkeleton] | None = None,
    backend: SolverBackend | None = None,
    report: MilestoneSearchReport | None = None,
) -> MaxStretchSolution | None:
    """Certificate-guided parametric search (the default strategy).

    Upward, an infeasible probe's dual ray refutes every milestone below its
    affine bound ``-A/B``, so the search jumps straight to the first
    non-refuted interval instead of galloping through the refuted ones.
    Downward, a feasible probe whose optimum is strictly interior *is* the
    global optimum (monotone feasibility) and the search stops without the
    legacy confirmation probes; a boundary optimum falls back to bisection,
    its pivots biased by any further certificates.

    Certificate bounds only ever choose the *probe order*, never the
    outcome: beyond its own milestone interval a dual ray is evaluated on a
    stale interval structure, so its bound may legitimately overshoot the
    optimum.  Acceptance therefore always requires the interior proof or a
    solved infeasible probe directly below the accepted interval (``lo``
    advances exclusively on solved infeasibilities, which refute everything
    beneath them by monotonicity) -- a misleading bound costs extra probes
    but can never produce a wrong result.
    """
    last = len(boundaries) - 2
    solved = 0
    skipped = 0
    interior_exit = False
    strongest_bound = -math.inf
    strongest: SearchCertificate | None = None

    def probe(i: int) -> tuple[MaxStretchSolution | None, float | None]:
        nonlocal solved, strongest, strongest_bound
        outcome = ProbeOutcome()
        solution = solve_on_objective_range(
            problem, boundaries[i], boundaries[i + 1],
            skeleton_cache=skeleton_cache, backend=backend, outcome=outcome,
        )
        solved += 1
        if outcome.certificate is not None and outcome.certificate_bound > strongest_bound:
            strongest_bound = outcome.certificate_bound
            strongest = outcome.certificate
        return solution, outcome.certificate_bound

    def finish(best: MaxStretchSolution | None) -> MaxStretchSolution | None:
        if report is not None:
            report.n_solved = solved
            report.n_skipped = skipped
            report.interior_exit = interior_exit
            report.certificate = strongest
        note_certificate_skips(skipped)
        note_milestone_search(solved, skipped, interior_exit)
        return best

    # -- upward phase: find some feasible interval ---------------------------------
    idx = min(max(start_idx, 0), last)
    floor = -1  # highest index with a *solved* infeasible probe
    step = 1
    best: MaxStretchSolution | None = None
    while True:
        solution, bound = probe(idx)
        if solution is not None:
            best = solution
            best_idx = idx
            break
        floor = idx
        if idx == last:
            return finish(None)
        nxt = min(idx + step, last)
        step *= 2
        if bound is not None:
            # Jump past every milestone the certificate refutes (never
            # backward: the gallop step is the uncertified floor).
            nxt = max(nxt, _interval_of(boundaries, bound, idx + 1, last))
        idx = nxt

    # -- downward phase: prove best_idx is the *first* feasible interval -----------
    lo = floor + 1  # lowest index NOT refuted by a solved probe (sound floor)
    hint: float | None = None
    while best_idx > lo:
        if _is_interior(best, boundaries[best_idx]):
            # The winning probe's own optimum certifies global optimality;
            # the candidates below are eliminated without solving them.
            interior_exit = True
            skipped += best_idx - lo
            break
        hi = best_idx - 1
        if hint is not None:
            # Probe the interval the last certificate points at (clamped
            # into the open bracket) instead of the bisection midpoint: a
            # feasible outcome moves ``best_idx`` down onto it, an
            # infeasible outcome *soundly* refutes everything below it by
            # monotonicity.  The bound itself never advances ``lo``.
            mid = _interval_of(boundaries, hint, lo, hi)
            hint = None
        else:
            mid = (lo + hi) // 2
        solution, bound = probe(mid)
        if solution is not None:
            best = solution
            best_idx = mid
        else:
            if bound is not None and mid + 1 < best_idx:
                hint = bound
            lo = mid + 1
    return finish(best)


def _search_gallop(
    problem: MaxStretchProblem,
    boundaries: Sequence[float],
    start_idx: int,
    *,
    skeleton_cache: MutableMapping[tuple, ConstraintSkeleton] | None = None,
    backend: SolverBackend | None = None,
    report: MilestoneSearchReport | None = None,
) -> MaxStretchSolution | None:
    """The legacy bidirectional gallop + bisection (reference strategy).

    Gallops outward from ``start_idx`` -- downward while feasible, upward
    while infeasible, with doubling steps -- then binary-searches the
    bracket found.  Solves strictly more LPs than the certificate search
    (every candidate is settled by an actual solve); kept as the oracle the
    certificate search is equality-gated against in tests and benchmarks.
    """
    last = len(boundaries) - 2
    solved = 0

    def probe(i: int) -> MaxStretchSolution | None:
        nonlocal solved
        solved += 1
        return solve_on_objective_range(
            problem, boundaries[i], boundaries[i + 1],
            skeleton_cache=skeleton_cache, backend=backend,
        )

    def finish(best: MaxStretchSolution | None) -> MaxStretchSolution | None:
        if report is not None:
            report.n_solved = solved
        note_milestone_search(solved, 0, False)
        return best

    best: MaxStretchSolution | None = None
    lo = 0
    hi = -1
    solution = probe(start_idx)
    if solution is not None:
        # Gallop downward until an infeasible interval bounds the bracket
        # (a feasible probe at index 0 means the optimum lives there and the
        # bracket stays empty).
        best = solution
        floor = start_idx
        step = 1
        idx = start_idx - 1
        while idx >= 0:
            solution = probe(idx)
            if solution is None:
                lo, hi = idx + 1, floor - 1
                break
            best = solution
            floor = idx
            if idx == 0:
                break
            idx = max(idx - step, 0)
            step *= 2
    else:
        # Gallop upward until a feasible interval is found.
        prev = start_idx
        step = 1
        idx = start_idx + 1
        while idx <= last:
            solution = probe(idx)
            if solution is not None:
                best = solution
                lo, hi = prev + 1, idx - 1
                break
            prev = idx
            if idx == last:
                break
            idx = min(idx + step, last)
            step *= 2
        if best is None:
            return finish(None)

    # Refine inside the bracket (lo..hi are untested indices below the first
    # known-feasible one).
    while lo <= hi:
        mid = (lo + hi) // 2
        solution = probe(mid)
        if solution is not None:
            best = solution
            hi = mid - 1
        else:
            lo = mid + 1
    return finish(best)


# -- shared constraint builders (also used by the System (2) relaxation) -------------


def _probe_value(f_low: float, f_high: float) -> float:
    """A probe objective strictly inside ``[f_low, f_high]`` whenever possible."""
    if math.isinf(f_high):
        return f_low + 1.0
    if f_high <= f_low:
        return f_low
    return 0.5 * (f_low + f_high)


def _extract_allocations(
    problem: MaxStretchProblem,
    skeleton: ConstraintSkeleton,
    offset: int,
    values: np.ndarray,
) -> dict[tuple[int, int, int], float]:
    """Read the x variables back, dropping numerically-zero allocations.

    ``offset`` is the index of the first x variable (1 when the objective
    variable precedes them).  The per-variable threshold (relative to the
    job's remaining work, as the historical loop computed it) is evaluated
    as one vectorized comparison; only the surviving entries pay a Python
    dict insert.
    """
    arrays = _assembly_arrays(skeleton)
    vals = np.asarray(values)[offset:offset + len(skeleton.keys)]
    works = problem.remaining_works()
    threshold = _ALLOCATION_EPS * np.maximum(1.0, works[arrays.key_jpos])
    keys = skeleton.keys
    return {keys[i]: float(vals[i]) for i in np.nonzero(vals > threshold)[0]}
