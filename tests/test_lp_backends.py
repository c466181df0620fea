"""Backend-equivalence tests for the pluggable LP solver layer.

The persistent HiGHS backend must be a drop-in replacement for the one-shot
scipy path: same feasibility verdicts at every milestone probe, same System
(1) objective, and System (2) allocations of the same quality -- all within
solver tolerance.  The suite is parametrized over the available backends and
skips the HiGHS legs gracefully when neither ``highspy`` nor scipy's
vendored bindings are importable.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.errors import SolverError
from repro.lp.backends import (
    BACKEND_CHOICES,
    ScipyBackend,
    default_backend,
    highs_available,
    make_backend,
    record_lp_probes,
)
from repro.lp.incremental import ReplanContext
from repro.lp.maxstretch import minimize_max_weighted_flow, solve_on_objective_range
from repro.lp.problem import problem_from_instance
from repro.lp.relaxation import reoptimize_allocation
from repro.lp.solver import LinearProgramBuilder
from repro.schedulers.registry import make_scheduler
from repro.simulation.engine import simulate
from repro.workload.generator import PlatformSpec, WorkloadSpec, generate_instance

requires_highs = pytest.mark.skipif(
    not highs_available(),
    reason="neither highspy nor scipy-vendored HiGHS bindings are available",
)

#: Backend names exercised by the equivalence tests.
BACKENDS = [
    pytest.param("scipy"),
    pytest.param("highs", marks=requires_highs),
]


def _small_instance(seed: int, *, max_jobs: int = 18, density: float = 1.5):
    platform_spec = PlatformSpec(
        n_clusters=3, processors_per_cluster=4, n_databanks=3, availability=0.6
    )
    workload_spec = WorkloadSpec(density=density, window=30.0, max_jobs=max_jobs)
    return generate_instance(platform_spec, workload_spec, rng=seed)


# -- builder-level behaviour ---------------------------------------------------------


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestBuilderWithBackend:
    def test_simple_minimization(self, backend_name):
        builder = LinearProgramBuilder()
        x = builder.add_variable(objective=1.0)
        y = builder.add_variable(objective=1.0)
        builder.add_leq([(x, -1.0), (y, -1.0)], -1.0)
        result = builder.solve(backend=make_backend(backend_name))
        assert result.feasible
        assert result.objective == pytest.approx(1.0)
        assert result.value(x) + result.value(y) == pytest.approx(1.0)

    def test_equality_and_bounds(self, backend_name):
        builder = LinearProgramBuilder()
        x = builder.add_variable(objective=1.0)
        y = builder.add_variable(upper=1.0)
        builder.add_eq([(x, 1.0), (y, 1.0)], 3.0)
        result = builder.solve(backend=make_backend(backend_name))
        assert result.feasible
        assert result.value(x) == pytest.approx(2.0)

    def test_infeasible_returns_flag_not_exception(self, backend_name):
        builder = LinearProgramBuilder()
        x = builder.add_variable(upper=1.0)
        builder.add_eq([(x, 1.0)], 5.0)
        result = builder.solve(backend=make_backend(backend_name))
        assert not result.feasible
        assert np.isinf(result.objective)

    def test_unbounded_raises_solver_error(self, backend_name):
        builder = LinearProgramBuilder()
        builder.add_variable(objective=-1.0)  # min -x with x unbounded above
        with pytest.raises(SolverError):
            builder.solve(backend=make_backend(backend_name))

    def test_transportation_problem(self, backend_name):
        builder = LinearProgramBuilder()
        x = {}
        costs = {(0, 0): 1.0, (0, 1): 3.0, (1, 0): 3.0, (1, 1): 1.0}
        for key, cost in costs.items():
            x[key] = builder.add_variable(objective=cost)
        builder.add_leq([(x[(0, 0)], 1.0), (x[(0, 1)], 1.0)], 3.0)
        builder.add_leq([(x[(1, 0)], 1.0), (x[(1, 1)], 1.0)], 2.0)
        builder.add_eq([(x[(0, 0)], 1.0), (x[(1, 0)], 1.0)], 2.0)
        builder.add_eq([(x[(0, 1)], 1.0), (x[(1, 1)], 1.0)], 3.0)
        result = builder.solve(backend=make_backend(backend_name))
        assert result.feasible
        assert result.objective == pytest.approx(7.0)


# -- milestone search / System (2) equivalence ---------------------------------------


@requires_highs
@pytest.mark.parametrize("seed", [0, 7, 2006])
class TestMilestoneSearchEquivalence:
    def test_objectives_and_allocation_quality_agree(self, seed):
        instance = _small_instance(seed)
        problem = problem_from_instance(instance)
        reference = minimize_max_weighted_flow(problem)
        backend = make_backend("highs")
        solution = minimize_max_weighted_flow(problem, backend=backend)

        assert solution.objective == pytest.approx(reference.objective, rel=1e-8)
        # Allocations may differ between alternate optima, but both must be
        # complete and certify (close to) the same max weighted flow.
        for job in problem.jobs:
            assert solution.work_for_job(job.job_id) == pytest.approx(
                job.remaining_work, rel=1e-6
            )
        certificate = solution.max_weighted_flow_of_allocation()
        assert certificate <= solution.objective * (1 + 1e-6) + 1e-9

    def test_system2_allocations_complete_and_bounded(self, seed):
        instance = _small_instance(seed)
        problem = problem_from_instance(instance)
        reference = minimize_max_weighted_flow(problem)
        backend = make_backend("highs")
        reopt_ref = reoptimize_allocation(problem, reference.objective)
        reopt = reoptimize_allocation(
            problem, reference.objective, backend=backend
        )
        assert reopt.objective == pytest.approx(reopt_ref.objective, rel=1e-9)
        for job in problem.jobs:
            assert reopt.work_for_job(job.job_id) == pytest.approx(
                job.remaining_work, rel=1e-6
            )
        # Same System (2) objective value (mean-completion relaxation cost).
        assert _relaxation_cost(reopt) == pytest.approx(
            _relaxation_cost(reopt_ref), rel=1e-6, abs=1e-9
        )

    def test_feasibility_verdicts_agree_below_optimum(self, seed):
        instance = _small_instance(seed)
        problem = problem_from_instance(instance)
        reference = minimize_max_weighted_flow(problem)
        backend = make_backend("highs")
        lo = problem.objective_lower_bound()
        target = lo + 0.5 * (reference.objective - lo)
        if target <= lo:  # optimum == lower bound: nothing below to probe
            pytest.skip("degenerate instance: optimum equals the lower bound")
        scipy_probe = solve_on_objective_range(problem, lo, target)
        highs_probe = solve_on_objective_range(problem, lo, target, backend=backend)
        assert (scipy_probe is None) == (highs_probe is None)


def _relaxation_cost(solution) -> float:
    """The System (2) objective of a solution (sum of weighted midpoints)."""
    remaining = {job.job_id: job.remaining_work for job in solution.problem.jobs}
    total = 0.0
    for (t, _c, j), work in solution.allocations.items():
        lo, hi = solution.interval_bounds[t]
        total += 0.5 * (lo + hi) * work / remaining[j]
    return total


# -- replanning pipeline equivalence -------------------------------------------------


@requires_highs
class TestReplanContextWithHighsBackend:
    def test_context_owns_persistent_backend(self):
        instance = _small_instance(3)
        context = ReplanContext(instance, solver_backend="highs")
        assert context.backend.persistent
        remaining = {job.job_id: job.size for job in instance.jobs}
        first = context.solve_max_stretch(context.build_problem(0.0, remaining))
        reference = ReplanContext(instance).solve_max_stretch(
            ReplanContext(instance).build_problem(0.0, remaining)
        )
        assert first.objective == pytest.approx(reference.objective, rel=1e-8)
        context.close()
        assert context.backend._models == {}

    def test_two_replan_sequence_matches_scipy(self):
        instance = _small_instance(11)
        scipy_ctx = ReplanContext(instance)
        highs_ctx = ReplanContext(instance, solver_backend="highs")
        remaining = {job.job_id: job.size for job in instance.jobs}
        for now in (0.0, 5.0):
            active = {j: r for j, r in remaining.items()}
            p_scipy = scipy_ctx.build_problem(now, active)
            p_highs = highs_ctx.build_problem(now, active)
            s_scipy = scipy_ctx.solve_max_stretch(p_scipy)
            s_highs = highs_ctx.solve_max_stretch(p_highs)
            assert s_highs.objective == pytest.approx(s_scipy.objective, rel=1e-8)
            # Shrink remaining works as if a chunk executed before the replan.
            remaining = {j: 0.7 * r for j, r in remaining.items()}

    def test_end_to_end_simulation_equivalent(self):
        instance = _small_instance(5, max_jobs=25, density=2.0)
        results = {}
        for backend_name in ("scipy", "highs"):
            scheduler = make_scheduler("online", solver_backend=backend_name)
            results[backend_name] = (simulate(instance, scheduler), scheduler)
        r_scipy, s_scipy = results["scipy"]
        r_highs, s_highs = results["highs"]
        # The S* trajectory is solver-independent (unique LP optimum)...
        assert s_highs.last_objective == pytest.approx(
            s_scipy.last_objective, rel=1e-8
        )
        assert s_highs.n_resolutions == s_scipy.n_resolutions
        # ... and the realized quality matches even when degenerate alternate
        # optima lead to different (equally optimal) allocations.
        assert set(r_highs.completions) == set(r_scipy.completions)
        assert r_highs.max_stretch == pytest.approx(r_scipy.max_stretch, rel=1e-6)


# -- persistence mechanics -----------------------------------------------------------


@requires_highs
class TestPersistentMechanics:
    def test_delta_update_on_shared_key(self):
        backend = make_backend("highs")

        def solve(rhs: float, cost_y: float):
            builder = LinearProgramBuilder()
            x = builder.add_variable(objective=1.0)
            y = builder.add_variable(objective=cost_y)
            builder.add_eq([(x, 1.0), (y, 1.0)], rhs)
            return builder.solve(backend=backend, key="shared-pattern")

        first = solve(3.0, 2.0)
        second = solve(5.0, 0.5)  # same matrix; RHS and cost deltas only
        assert first.feasible and second.feasible
        assert first.objective == pytest.approx(3.0)
        assert second.objective == pytest.approx(2.5)  # y carries the load now
        assert backend.n_full_builds == 1
        assert backend.n_delta_updates == 1

    def test_model_cache_is_bounded(self):
        backend = make_backend("highs")
        assert isinstance(backend._max_models, int)
        for i in range(backend._max_models + 5):
            builder = LinearProgramBuilder()
            x = builder.add_variable(objective=1.0, lower=float(i))
            builder.add_leq([(x, 1.0)], float(i) + 10.0)
            builder.solve(backend=backend, key=("pattern", i))
        assert len(backend._models) == backend._max_models

    def test_milestone_search_transplants_bases(self):
        instance = _small_instance(7, max_jobs=20, density=2.0)
        problem = problem_from_instance(instance)
        backend = make_backend("highs")
        with record_lp_probes() as stats:
            minimize_max_weighted_flow(problem, backend=backend)
        assert stats.n_probes >= 2
        # Every probe after the first inherits the previous probe's basis.
        assert backend.n_basis_transplants >= stats.n_probes - 1

    def test_probe_stats_hook_counts_all_backends(self):
        instance = _small_instance(1, max_jobs=8)
        problem = problem_from_instance(instance)
        with record_lp_probes() as stats:
            minimize_max_weighted_flow(problem)
            minimize_max_weighted_flow(problem, backend=make_backend("highs"))
        assert stats.n_probes > 0
        assert set(stats.by_backend) == {"scipy", "highs"}
        assert stats.solve_seconds > 0
        assert stats.per_probe_seconds > 0


def _probe_counters(stats) -> tuple:
    return stats.histogram(), stats.searches, len(stats.replan_latencies)


def test_probe_stats_are_scoped_to_their_thread():
    # A record_lp_probes block counts only the probes of its own thread:
    # concurrent runs must report exactly the counters they report alone
    # (LP-free heuristics: zero probes, whatever runs beside them).
    instance = _small_instance(5, max_jobs=20, density=2.0)
    keys = ("swrpt", "online", "mct")
    online_done = threading.Event()

    def scheduler_for(key, *, gated):
        if key == "online":
            return make_scheduler(key, solver_backend="scipy")
        scheduler = make_scheduler(key)
        if gated:
            # Hold the heuristic's run -- and so its open collector -- until
            # the online run in the other thread has finished all its solves.
            reset = scheduler.reset

            def reset_after_online(inst):
                assert online_done.wait(timeout=120)
                reset(inst)

            scheduler.reset = reset_after_online
        return scheduler

    def run(key, *, gated=False):
        result = simulate(instance, scheduler_for(key, gated=gated))
        return _probe_counters(result.lp_probes)

    alone = {key: run(key) for key in keys}
    assert alone["online"][0]["solved"] > 0
    assert alone["swrpt"][0]["solved"] == alone["mct"][0]["solved"] == 0

    barrier = threading.Barrier(len(keys))
    concurrent: dict[str, tuple] = {}
    errors: list[BaseException] = []

    def worker(key):
        try:
            barrier.wait()
            concurrent[key] = run(key, gated=True)
        except BaseException as exc:  # surfaced on the main thread below
            errors.append(exc)
        finally:
            if key == "online":
                online_done.set()

    threads = [threading.Thread(target=worker, args=(key,)) for key in keys]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert not errors, errors
    assert concurrent == alone


def test_nested_probe_blocks_stack_and_unstack():
    # Every open block sees the probes run inside it; a closed block stops
    # counting, so a sibling opened after it reaches only the outer block.
    problem = problem_from_instance(_small_instance(1, max_jobs=8))
    with record_lp_probes() as outer:
        minimize_max_weighted_flow(problem, backend=ScipyBackend())
        alone = outer.n_probes
        with record_lp_probes() as inner:
            minimize_max_weighted_flow(problem, backend=ScipyBackend())
        inner_probes = inner.n_probes
        with record_lp_probes() as sibling:
            minimize_max_weighted_flow(problem, backend=ScipyBackend())
    assert alone > 0 and inner_probes > 0 and sibling.n_probes > 0
    assert inner.n_probes == inner_probes
    assert outer.n_probes == alone + inner_probes + sibling.n_probes


def test_probe_block_closes_when_its_body_raises():
    problem = problem_from_instance(_small_instance(1, max_jobs=8))
    with pytest.raises(RuntimeError, match="interrupted"):
        with record_lp_probes() as interrupted:
            raise RuntimeError("interrupted")
    with record_lp_probes() as stats:
        minimize_max_weighted_flow(problem, backend=ScipyBackend())
    assert stats.n_probes > 0
    assert interrupted.n_probes == 0


# -- backend selection ---------------------------------------------------------------


class TestMakeBackend:
    def test_default_is_shared_scipy(self):
        assert make_backend(None) is default_backend()
        assert make_backend("scipy") is default_backend()
        assert isinstance(default_backend(), ScipyBackend)
        assert not default_backend().persistent

    def test_instance_passthrough(self):
        backend = ScipyBackend()
        assert make_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(SolverError):
            make_backend("cplex")

    def test_choices_cover_known_names(self):
        assert set(BACKEND_CHOICES) == {"scipy", "highs", "auto"}

    @requires_highs
    def test_highs_instances_are_fresh(self):
        first = make_backend("highs")
        second = make_backend("highs")
        assert first is not second  # each context owns its live models
        assert first.persistent

    @requires_highs
    def test_auto_prefers_highs(self):
        assert make_backend("auto").persistent

    def test_graceful_fallback_without_bindings(self, monkeypatch):
        import repro.lp.backends.highs as highs_mod

        monkeypatch.setattr(highs_mod, "_load_api", lambda: None)
        assert not highs_mod.highs_available()
        with pytest.raises(SolverError, match="highspy"):
            make_backend("highs")
        fallback = make_backend("auto")
        assert isinstance(fallback, ScipyBackend)
