"""The repository benchmark: ``python3 perfbench/run.py --workload NAME ...``.

Runs one workload of :mod:`workloads` from the root of a source checkout,
checks the program's outputs and prints, as the last line of standard
output, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics (measured untraced);
``--trace 1`` measures the same units untraced and then traced, and
reports the per-layer metrics plus the tracing overhead.  Timings are
scaled to the reference speed of :mod:`measure`; raw values are printed
above the JSON line.

Example::

    python3 perfbench/run.py --workload simulate-online --seed 1 --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from measure import percentile, reference_sample, scale_times, tail_percentile  # noqa: E402
from workloads import WORK, WORKLOADS, Measurement, Workload  # noqa: E402


def layer_metrics(workload: Workload, m: Measurement, untraced: Measurement) -> dict:
    """The per-layer metrics of one traced measuring pass."""
    from tracing import by_name, count_under

    dump = m.extra.get("dump") or {"spans": workload.tracer.spans,
                                   "results": workload.tracer.results}
    spans, results = dump["spans"], dump["results"]
    table = by_name(spans)

    def count(*names):
        return sum(table[n]["count"] for n in names if n in table)

    def total(*names):
        return sum(table[n]["total"] for n in names if n in table)

    def own(*names):
        return sum(table[n]["self"] for n in names if n in table)

    def pct_ms(name, pct):
        durations = table[name]["durations"] if name in table else []
        return percentile(durations, pct) * 1e3 if durations else 0.0

    attempts = sum(results.get("lp.attempts", ()))
    bank = results.get("lp.bank", ())
    admit = [s[2] - s[1] for s in sorted((s for s in spans if s[0] == "core.instance.admit"),
                                         key=lambda s: s[1])]
    tenth = len(admit) // 10
    growth = (statistics.median(admit[-tenth:]) / statistics.median(admit[:tenth])
              if tenth else 0.0)
    late = m.extra.get("late")
    # The untraced pass's raw unit latency, p50 and the tail by the
    # percentile rule; ungated (see the DaemonStream docstring).
    tail = tail_percentile(len(untraced.latencies))
    solves = count("lp.solve")
    # Traced over untraced end to end, both scaled to the reference speed:
    # the daemon's p50 submission latency, the batch workloads' total time.
    if isinstance(workload, WORKLOADS["daemon-stream"]):
        overhead = (percentile(m.scaled_latencies(), 50)
                    / percentile(untraced.scaled_latencies(), 50)) - 1.0
    else:
        overhead = (sum(scale_times(m.raw, m.clock))
                    / sum(scale_times(untraced.raw, untraced.clock))) - 1.0
    values = {
        "workload.generate.calls": (count("workload.generate"), "count"),
        "workload.generate.s": (total("workload.generate"), "s"),
        "simulation.steps": (count("schedulers.assign"), "count"),
        "simulation.self_s": (own("simulation.run"), "s"),
        "schedulers.callbacks": (count("schedulers.assign", "schedulers.callback"), "count"),
        "schedulers.self_s": (own("schedulers.assign", "schedulers.callback"), "s"),
        "lp.replans": (count("lp.replan"), "count"),
        "lp.replan.self_s": (own("lp.replan"), "s"),
        "lp.replan.p50_ms": (pct_ms("lp.replan", 50), "ms"),
        "lp.replan.p99_ms": (pct_ms("lp.replan", 99), "ms"),
        "lp.maxstretch.searches": (count("lp.maxstretch"), "count"),
        "lp.maxstretch.probes": (count_under(spans, "lp.solve", "lp.maxstretch"), "count"),
        "lp.maxstretch.self_s": (own("lp.maxstretch"), "s"),
        "lp.solve.calls": (solves, "count"),
        "lp.solve.self_s": (own("lp.solve", "lp.attempts"), "s"),
        "lp.native.s": (total("lp.native"), "s"),
        "lp.solve.retries": (attempts - count("lp.attempts"), "count"),
        "lp.relaxation.calls": (count("lp.relaxation"), "count"),
        "lp.relaxation.self_s": (own("lp.relaxation"), "s"),
        "lp.aggregation.calls": (count("lp.aggregation"), "count"),
        "lp.aggregation.s": (total("lp.aggregation"), "s"),
        "lp.bank.lookups": (len(bank), "count"),
        "lp.bank.hit_ratio": (sum(bank) / len(bank) if bank else 0.0, "ratio"),
        "lp.solves_per_record": (solves / m.records if m.records else 0.0, "ratio"),
        "experiments.pack.s": (total("experiments.pack"), "s"),
        "experiments.journal.s": (total("experiments.journal"), "s"),
        "experiments.journal.bytes": (m.extra.get("journal_bytes", 0), "bytes"),
        "experiments.report.s": (total("experiments.report"), "s"),
        "core.metrics.s": (total("core.metrics"), "s"),
        "service.submit.p50_ms": (pct_ms("service.submit", 50), "ms"),
        "service.submit.p99_ms": (pct_ms("service.submit", 99), "ms"),
        "service.http.self_s": (own("service.http"), "s"),
        "core.instance.admit.growth": (growth, "ratio"),
        "service.journal.s": (total("service.journal"), "s"),
        "service.rejected": (m.failed if late is not None else 0, "count"),
        "service.shed": (m.extra.get("shed", 0), "count"),
        "bench.generator_late_p99_ms": (percentile(late, 99) * 1e3 if late else 0.0, "ms"),
        "bench.latency_p50_ms": (percentile(untraced.latencies, 50) * 1e3, "ms"),
        "bench.latency_tail_ms": (percentile(untraced.latencies, tail) * 1e3, "ms"),
        "bench.latency_tail_pct": (tail, "pct"),
        "bench.tracing_overhead": (overhead, "ratio"),
    }
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the set-up seconds and exit")
    args = parser.parse_args(argv)
    if not (HERE.parent / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a source checkout (src/repro is missing)",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    WORK.mkdir(exist_ok=True)

    # A traced run measures the same units twice (untraced, then traced),
    # each sized for half the seconds, so it takes as long as an untraced one.
    seconds = max(1, (args.seconds + 1) // 2) if args.trace else args.seconds
    workload = WORKLOADS[args.workload](args.seed, seconds)
    try:
        return _run(args, workload)
    finally:
        if workload.work is not None:
            shutil.rmtree(workload.work, ignore_errors=True)


def _run(args: argparse.Namespace, workload: Workload) -> int:
    workload.setup()
    setup_own = time.perf_counter() - _START
    setup_ref = reference_sample()
    if args.setup_only:
        print(f"{setup_own:.6f} {setup_ref:.6f}")
        return 0

    untraced = workload.measure()
    measured = [untraced]
    if args.trace:
        from tracing import Tracer, install

        workload.tracer = Tracer()
        install(workload.tracer)
        traced = workload.measure()
        measured.append(traced)
        spans_file = traced.extra.get("trace_out")
        if spans_file is not None:
            traced.extra["dump"] = json.loads(Path(spans_file).read_text())
        else:
            workload.tracer.dump(str(WORK / f"spans-{args.workload}-{args.seed}.json"))
    setup = workload.setup_samples(setup_own, setup_ref)

    problems = [p for m in measured for p in m.problems]
    attempted = sum(m.attempted for m in measured)
    failed = sum(m.failed for m in measured)

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print(f"# setup samples s: {' '.join(f'{v:.4f}' for v in setup)}")
    for line in workload.notes(untraced):
        print(f"# {line}")
    if args.trace:
        metrics = layer_metrics(workload, measured[1], untraced)
    else:
        metrics = workload.end_to_end(untraced, setup)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6f} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
