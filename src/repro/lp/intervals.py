"""Epochal times and interval structures (Section 4.3.1).

For a given objective value :math:`\\mathcal{F}`, the *epochal times* are the
release dates (earliest start dates) and the deadlines
:math:`\\bar d_j(\\mathcal{F})`.  Between two consecutive milestones the
relative order of these points does not depend on :math:`\\mathcal{F}`, so the
time axis decomposes into intervals whose bounds are affine functions of the
objective.  The linear programs of Systems (1) and (2) are written on this
fixed interval structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import ModelError
from repro.lp.problem import Affine, MaxStretchProblem

__all__ = ["IntervalStructure", "build_interval_structure"]


@dataclass(frozen=True)
class IntervalStructure:
    """The ordered epochal boundaries for one milestone interval.

    Attributes
    ----------
    boundaries:
        Distinct affine epochal times, sorted by their value at :attr:`probe`.
    probe:
        The objective value used to fix the ordering (any value strictly
        inside the milestone interval under consideration).
    job_start_index:
        For each job, the index of the boundary equal to its earliest start.
    job_deadline_index:
        For each job, the index of the boundary equal to its deadline.
    """

    boundaries: tuple[Affine, ...]
    probe: float
    job_start_index: dict[int, int]
    job_deadline_index: dict[int, int]

    @property
    def n_intervals(self) -> int:
        """Number of elementary intervals (= number of boundaries - 1)."""
        return max(0, len(self.boundaries) - 1)

    def interval(self, index: int) -> tuple[Affine, Affine]:
        """The (lower, upper) affine bounds of interval ``index``."""
        return self.boundaries[index], self.boundaries[index + 1]

    def interval_length(self, index: int) -> Affine:
        """The length of interval ``index`` as an affine function of the objective."""
        lower, upper = self.interval(index)
        return upper - lower

    def bounds_at(self, objective: float) -> list[tuple[float, float]]:
        """All interval bounds evaluated at ``objective``."""
        values = [b.at(objective) for b in self.boundaries]
        return [(values[i], values[i + 1]) for i in range(self.n_intervals)]

    def job_intervals(self, job_id: int) -> range:
        """Indices of the intervals in which the job may be processed.

        Interval ``t`` spans boundaries ``t`` and ``t+1``; the job may be
        processed there when the interval starts no earlier than its earliest
        start and ends no later than its deadline (constraints (1b)/(1c)).
        """
        return range(self.job_start_index[job_id], self.job_deadline_index[job_id])


def build_interval_structure(problem: MaxStretchProblem, probe: float) -> IntervalStructure:
    """Build the interval structure valid around objective value ``probe``.

    ``probe`` must lie strictly inside a milestone interval for the resulting
    ordering to be valid on that whole interval; at a milestone itself the
    ordering of coincident points is arbitrary, which only introduces
    zero-length intervals and does not affect feasibility.
    """
    if probe < 0:
        raise ModelError(f"probe objective must be non-negative, got {probe}")

    # The candidate boundaries are the job starts (constant affines) and the
    # deadlines (slope = flow factor); the distinct (const, coef) pairs are
    # sorted by value at the probe, ties broken by slope then offset so that
    # the ordering is deterministic.
    n = problem.n_jobs
    starts, releases, factors = problem.job_vectors()
    consts = np.concatenate([starts, releases])
    coefs = np.concatenate([np.zeros(n, dtype=np.float64), factors])
    b_consts, b_coefs = _order_affine_boundaries(consts, coefs, probe)

    sorted_boundaries = tuple(
        Affine(const, coef) for const, coef in zip(b_consts.tolist(), b_coefs.tolist())
    )
    index_of = {
        (fn.const, fn.coef): idx for idx, fn in enumerate(sorted_boundaries)
    }

    job_start_index = {
        job.job_id: index_of[(job.earliest_start, 0.0)] for job in problem.jobs
    }
    job_deadline_index = {
        job.job_id: index_of[(job.release, job.flow_factor)] for job in problem.jobs
    }

    return IntervalStructure(
        boundaries=sorted_boundaries,
        probe=probe,
        job_start_index=job_start_index,
        job_deadline_index=job_deadline_index,
    )


def _order_affine_boundaries(
    consts: np.ndarray, coefs: np.ndarray, probe: float
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct boundaries ``const + coef*F``, sorted by (value at ``probe``, coef, const)."""
    # Exact duplicates -- equal (const, coef) pairs, hence equal full keys --
    # land adjacent and are dropped.  Distinct pairs always differ in the full
    # key (equal value and equal coef force equal const), so the order is
    # total and deterministic.
    values = consts + coefs * probe
    order = np.lexsort((consts, coefs, values))
    c = consts[order]
    k = coefs[order]
    keep = np.empty(order.size, dtype=bool)
    if order.size:
        keep[0] = True
        np.logical_or(c[1:] != c[:-1], k[1:] != k[:-1], out=keep[1:])
    return c[keep], k[keep]
