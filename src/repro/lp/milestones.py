"""Milestone enumeration (Section 4.3.1).

A *milestone* is an objective value :math:`\\mathcal{F}` at which the relative
order of the epochal times changes, i.e. where a deadline
:math:`\\bar d_j(\\mathcal{F}) = r_j + \\mathcal{F} f_j` coincides with an
earliest start date or with another deadline.  With :math:`n` jobs there are
at most :math:`n(n-1)` milestones; between two consecutive milestones the
interval structure is constant, so the optimal max weighted flow can be found
by a binary search over milestones with one LP per probe (see
:mod:`repro.lp.maxstretch`).
"""

from __future__ import annotations

import numpy as np

from repro.lp.problem import MaxStretchProblem

__all__ = ["enumerate_milestones"]


def enumerate_milestones(
    problem: MaxStretchProblem,
    *,
    lower: float = 0.0,
    upper: float = np.inf,
    tol: float = 1e-12,
) -> list[float]:
    """All milestone objective values in ``(lower, upper)``, sorted increasingly.

    Parameters
    ----------
    problem:
        The max weighted flow problem.
    lower, upper:
        Only milestones strictly inside this open range are returned; the
        binary search of :func:`repro.lp.maxstretch.minimize_max_weighted_flow`
        brackets the optimum with its own lower/upper bounds first.
    tol:
        Milestones closer than ``tol`` (relative) are merged.
    """
    jobs = problem.jobs
    n = len(jobs)
    if n == 0:
        return []

    starts, releases, factors = problem.job_vectors()

    candidates: list[np.ndarray] = []

    # Deadline of job j crosses the earliest start of job k:
    #   r_j + F f_j = e_k  =>  F = (e_k - r_j) / f_j
    cross_start = (starts[None, :] - releases[:, None]) / factors[:, None]
    candidates.append(cross_start.ravel())

    # Deadline of job j crosses deadline of job k (f_j != f_k):
    #   r_j + F f_j = r_k + F f_k  =>  F = (r_k - r_j) / (f_j - f_k)
    denom = factors[:, None] - factors[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        cross_deadline = (releases[None, :] - releases[:, None]) / denom
    cross_deadline = cross_deadline[np.isfinite(cross_deadline)]
    candidates.append(np.asarray(cross_deadline).ravel())

    values = np.concatenate(candidates)
    values = values[np.isfinite(values)]
    values = values[(values > max(lower, 0.0)) & (values < upper)]
    if values.size == 0:
        return []

    values = np.unique(values)
    # Merge near-duplicates (within relative tol) to keep the boundary list
    # short and to avoid zero-length binary-search intervals.
    return _merge_close_milestones(values, tol)


def _merge_close_milestones(values: np.ndarray, tol: float) -> list[float]:
    """Merge sorted candidate milestones closer than relative ``tol``.

    Keeps the first member of every close cluster, comparing each candidate
    against the last *kept* value.  ``values`` must be sorted, non-empty,
    float64.
    """
    # The comparison against the last kept value is loop-carried.  But merges
    # only fire on near-duplicates (relative tol, default 1e-12), so in the
    # common case the vectorized adjacent-difference test proves that nothing
    # merges -- then "last kept" == "previous element" and the whole array
    # survives verbatim.  Any failing pair falls back to the sequential loop.
    gaps = np.abs(values[1:] - values[:-1]) > tol * np.maximum(1.0, np.abs(values[1:]))
    if bool(gaps.all()):
        return values.tolist()
    return _merge_close_milestones_loop(values, tol)


def _merge_close_milestones_loop(values: np.ndarray, tol: float) -> list[float]:
    """The sequential merge of :func:`_merge_close_milestones`."""
    merged: list[float] = [float(values[0])]
    for v in values[1:]:
        if abs(v - merged[-1]) > tol * max(1.0, abs(v)):
            merged.append(float(v))
    return merged
