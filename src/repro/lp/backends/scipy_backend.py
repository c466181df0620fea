"""One-shot :func:`scipy.optimize.linprog` backend (the historical path).

Every solve converts the builder's COO triplets to CSR and hands the whole
program to scipy, which re-presolves and re-factorizes from scratch.  This is
the default backend: it has no persistent state, is always available, and its
results are the reference the persistent backends are tested against.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.core.errors import SolverError
from repro.lp.backends.base import LPResult, LPSpec, SolverBackend, WarmStartHint
from repro.lp.resilience import DEFAULT_RETRY_POLICY, RetryPolicy, solve_with_retries

__all__ = ["ScipyBackend"]


class ScipyBackend(SolverBackend):
    """Stateless backend delegating to :func:`scipy.optimize.linprog`.

    ``method="auto"`` picks HiGHS dual simplex for small programs and the
    HiGHS interior-point method for large ones (empirically ~2x faster on the
    transportation-like LPs produced by System (1) on big platforms).

    scipy status 1 (iteration limit) is treated as retriable: per the
    backend's :class:`~repro.lp.resilience.RetryPolicy` (the default policy
    unless one is passed at construction), the solve is retried with
    ``highs-ipm``, whose iteration economy differs enough from dual simplex
    to clear the limit on the rare degenerate programs that hit it.  Only a
    failure that exhausts the chain raises :class:`SolverError`.

    :func:`scipy.optimize.linprog` does not expose Farkas certificates, so
    infeasible results carry ``dual_ray=None`` and the certificate-guided
    milestone search degrades gracefully to its uncertified probe order
    (identical results, more LP solves).
    """

    name = "scipy"
    persistent = False

    def __init__(self, retry_policy: RetryPolicy | None = None):
        self.retry_policy = (
            retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY
        )

    def _solve(
        self,
        spec: LPSpec,
        *,
        method: str = "auto",
        key: Hashable | None = None,
        warm: WarmStartHint | None = None,
    ) -> LPResult:
        del key, warm  # one-shot backend: nothing to reuse
        if method == "auto":
            method = "highs-ipm" if spec.n_vars > 8000 else "highs"
        c = np.asarray(spec.objective)
        bounds = list(zip(spec.lower, spec.upper))
        a_ub = b_ub = a_eq = b_eq = None
        # Length checks, not truthiness: the builder may hand the RHS over
        # as numpy arrays (COO-block assembly), where truthiness is
        # ambiguous.
        if len(spec.ub_rhs):
            a_ub = sparse.coo_matrix(
                (spec.ub_vals, (spec.ub_rows, spec.ub_cols)),
                shape=(len(spec.ub_rhs), spec.n_vars),
            ).tocsr()
            b_ub = np.asarray(spec.ub_rhs)
        if len(spec.eq_rhs):
            a_eq = sparse.coo_matrix(
                (spec.eq_vals, (spec.eq_rows, spec.eq_cols)),
                shape=(len(spec.eq_rhs), spec.n_vars),
            ).tocsr()
            b_eq = np.asarray(spec.eq_rhs)

        def run(chosen_method: str):
            return linprog(
                c,
                A_ub=a_ub,
                b_ub=b_ub,
                A_eq=a_eq,
                b_eq=b_eq,
                bounds=bounds,
                method=chosen_method,
            )

        # scipy status codes: 0 success, 1 iteration limit, 2 infeasible,
        # 3 unbounded, 4 numerical difficulties.  Status 1 walks the retry
        # policy's escalation chain; 2 is a certified answer, not a failure.
        result, attempts, used = solve_with_retries(
            run, method, policy=self.retry_policy
        )
        if result.status == 2:
            return self.infeasible_result(spec, result.message)
        if result.status != 0:
            raise SolverError(
                f"LP solver failed (status {result.status}): {result.message}",
                backend=self.name,
                method=used,
                status=int(result.status),
                attempts=attempts,
            )
        return LPResult(
            status=0,
            feasible=True,
            objective=float(result.fun),
            values=np.asarray(result.x),
            message=result.message,
        )
