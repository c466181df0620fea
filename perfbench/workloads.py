"""The four workloads, each driven through the program's public entry points.

Every workload derives its inputs from the ``--seed`` it is given and sizes
its work from ``--seconds`` alone, so one (seed, seconds) pair always runs
the same work and the quality metrics of the batch workloads repeat
exactly.  A workload runs *units* (one ``simulate`` call, one campaign
pass, one daemon stream) and samples the reference clock of
:mod:`measure` around and, where it can pause the program, inside them.

Why these workloads:

* ``simulate-online`` -- the on-line LP replan path alone (System (1)
  search, scipy solver, System (2), plan installation); the engine is ~2 %
  here.  One fixed ``PlatformSpec()`` platform, so the seed varies only the
  request streams: platform variety is the campaigns' job, and here it
  would double the seed-to-seed spread.
* ``campaign-paper`` -- the reproduction's own job: ``run_campaign`` with
  the default schedulers (persistent HiGHS, state bank, off-line LP) on a
  job-capped paper slice, journaled, then ``report``.
* ``campaign-heuristics`` -- the same runner with the six LP-free
  heuristics on 10- and 20-site platforms: engine and heuristic kernels,
  no LP at all, so LP changes must show nothing here.
* ``daemon-stream`` -- a ``serve`` child fed open-loop over HTTP: the only
  workload through ``service/``, ``LiveInstance.admit`` and the journal.
"""

from __future__ import annotations

import gc
import http.client
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from measure import (
    REFERENCE_NOMINAL_S,
    ReferenceClock,
    percentile,
    reference_sample,
    scale_times,
    tail_percentile,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: Run outputs (journals, reports, span dumps); listed in .gitignore.
WORK = ROOT / ".perfbench"


def child_seed(seed: int, *parts: int) -> int:
    """An independent 32-bit seed for component ``parts`` of run ``seed``."""
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1)[0])


def geometric_mean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


@dataclass
class Measurement:
    """What one measuring pass over a workload's units produced."""

    raw: list[float] = field(default_factory=list)  # seconds per unit
    clock: ReferenceClock = field(default_factory=ReferenceClock)
    attempted: int = 0
    records: int = 0
    latencies: list[float] = field(default_factory=list)  # seconds, raw
    latency_units: list[int] = field(default_factory=list)  # unit of each latency
    max_stretch: list[float] = field(default_factory=list)  # per record
    sum_stretch: list[float] = field(default_factory=list)  # per record
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)

    def scaled_latencies(self) -> list[float]:
        return [v * self.clock.factor(u) for v, u in zip(self.latencies, self.latency_units)]


class Workload:
    """Common workload logic: set-up, measuring passes, metric assembly."""

    name = ""

    def __init__(self, seed: int, seconds: int):
        self.seed = seed
        self.seconds = seconds
        self.tracer = None
        #: This run's working directory (journals, reports), if it needs one.
        self.work: Path | None = None

    def setup(self) -> None:
        """Imports, input generation and an untimed warm-up call."""
        raise NotImplementedError

    def measure(self) -> Measurement:
        raise NotImplementedError

    def setup_samples(self, own: float, own_ref: float) -> list[float]:
        """Scaled set-up times: this process's plus two fresh processes'.

        A fresh process's set-up is scaled by the mean of reference
        samples taken just before it starts and in it just after set-up.
        """
        samples = [own * REFERENCE_NOMINAL_S / own_ref]
        for _ in range(2):
            before = reference_sample()
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", self.name,
                 "--seed", str(self.seed), "--seconds", str(self.seconds), "--setup-only"],
                cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
            )
            seconds, after = map(float, out.stdout.split()[-2:])
            samples.append(seconds * REFERENCE_NOMINAL_S / statistics.fmean((before, after)))
        return samples

    def rss_mb(self, m: Measurement) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def end_to_end(self, m: Measurement, setup: list[float]) -> dict[str, tuple[float, str]]:
        return {
            "setup_s": (statistics.median(setup), "s"),
            "records_per_s": (m.records / sum(scale_times(m.raw, m.clock)), "1/s"),
            "max_stretch_gmean": (geometric_mean(m.max_stretch), "ratio"),
            "sum_stretch_mean": (statistics.fmean(m.sum_stretch), "ratio"),
            "peak_rss_mb": (self.rss_mb(m), "MB"),
        }

    def notes(self, m: Measurement) -> list[str]:
        """Human-readable lines: raw (unscaled) timings and sample counts."""
        lat = m.latencies
        tail = tail_percentile(len(lat))
        lines = [
            f"raw records_per_s={m.records / sum(m.raw):.4f}",
            f"ungated latency per unit: p50 scaled "
            f"{percentile(m.scaled_latencies(), 50) * 1e3:.3f} ms, raw "
            f"{percentile(lat, 50) * 1e3:.3f} ms; p{tail:g} raw {percentile(lat, tail) * 1e3:.3f}"
            f" ms (the highest percentile with >= 10 of the n={len(lat)} samples beyond it)",
            f"records n={m.records} (max_stretch_gmean, sum_stretch_mean over these)",
        ]
        samples = m.clock.all_samples()
        lines.append(
            f"reference kernel: {len(samples)} samples, mean "
            f"{statistics.fmean(samples) * 1e3:.3f} ms (nominal "
            f"{REFERENCE_NOMINAL_S * 1e3:.3f} ms); unit scale factors "
            + " ".join(f"{m.clock.factor(k):.3f}" for k in range(len(m.raw)))
        )
        return lines


# -- simulate-online --------------------------------------------------------------------


class SimulateOnline(Workload):
    name = "simulate-online"
    #: Seed of the fixed ``PlatformSpec()`` platform.
    PLATFORM_SEED = 0
    N_JOBS = 60
    #: Nominal seconds per 60-job ``online`` call; sizes the call count.
    NOMINAL_CALL_S = 1.0

    def setup(self) -> None:
        sys.path.insert(0, str(SRC))
        import repro.api as api
        import repro.workload.generator as gen
        from repro.core.instance import Instance

        self.api = api
        platform, catalog = gen.generate_platform(gen.PlatformSpec(), rng=self.PLATFORM_SEED)
        count = max(2, round(self.seconds / self.NOMINAL_CALL_S))
        workload = gen.WorkloadSpec(max_jobs=self.N_JOBS)
        self.instances = [
            Instance(gen.generate_workload(platform, catalog, workload,
                                           rng=child_seed(self.seed, k)), platform)
            for k in range(count)
        ]
        warm = gen.generate_workload(platform, catalog, gen.WorkloadSpec(max_jobs=15),
                                     rng=child_seed(self.seed, 10**6))
        api.simulate(Instance(warm, platform), "online")

    def measure(self) -> Measurement:
        m = Measurement(attempted=len(self.instances))
        m.clock.sample(0)
        results = []
        for k, instance in enumerate(self.instances):
            if self.tracer is not None:
                self.tracer.unit = k
            start = time.perf_counter()
            results.append(self.api.simulate(instance, "online"))
            m.raw.append(time.perf_counter() - start)
            m.clock.sample(k, k + 1)
            m.latencies.append(m.raw[-1])
            m.latency_units.append(k)
        for instance, result in zip(self.instances, results):
            m.records += 1
            problems = result.schedule.violations(instance)
            if problems or len(result.completions) != instance.n_jobs:
                m.failed += 1
                m.problems.append(f"invalid schedule: {problems[:2]}")
            row = result.metrics_row()
            m.max_stretch.append(row["max_stretch"])
            m.sum_stretch.append(row["sum_stretch"])
        return m


# -- campaigns --------------------------------------------------------------------------


class Campaign(Workload):
    """``run_campaign`` + ``report`` passes over a fixed paper-shaped slice.

    A pass is one serial campaign (one replicate of every configuration,
    journaled) followed by ``report`` on its journal; the latency unit is
    the pass.  The reference kernel also runs inside the progress callback
    at each (configuration, replicate) group boundary, while the campaign
    is paused there; that time is taken out of the pass time.
    """

    SITES: tuple[int, ...] = ()
    DATABANKS: tuple[int, ...] = (3, 20)
    DENSITIES: tuple[float, ...] = (0.75, 1.5)
    MAX_JOBS = 0
    SCHEDULERS: tuple[str, ...] | None = None
    #: Nominal seconds per pass; sizes the pass count.
    NOMINAL_PASS_S = 1.0

    def setup(self) -> None:
        sys.path.insert(0, str(SRC))
        import repro.api as api
        import repro.experiments.runner as runner
        from repro.experiments.config import paper_configurations

        self.api = api
        self.runner = runner
        self.configs = paper_configurations(
            sites=self.SITES, databanks=self.DATABANKS, availabilities=(0.6,),
            densities=self.DENSITIES, max_jobs=self.MAX_JOBS,
        )
        self.keys = tuple(self.SCHEDULERS or runner.DEFAULT_SCHEDULERS)
        self.passes = max(1, round(self.seconds / self.NOMINAL_PASS_S))
        self.n_measures = 0
        self.work = WORK / f"{self.name}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        warm = paper_configurations(
            sites=self.SITES[:1], databanks=(3,), availabilities=(0.6,),
            densities=(0.75,), max_jobs=5,
        )
        journal = self.work / "warm.jsonl"
        api.run_campaign(warm, scheduler_keys=self.keys, replicates=1,
                         base_seed=child_seed(self.seed, 10**6), checkpoint=journal)
        api.report(journal, self.work / "warm-report")

    def measure(self) -> Measurement:
        m = Measurement()
        # Keep every (instance, result) the runner simulates, to validate the
        # schedules after the timed region.
        captured: list[tuple[Any, Any]] = []
        original = self.runner.simulate

        def capture(instance, scheduler, **kwargs):
            result = original(instance, scheduler, **kwargs)
            captured.append((instance, result))
            return result

        self.n_measures += 1
        self.runner.simulate = capture
        outcomes = []
        journal_bytes = 0
        try:
            m.clock.sample(0)
            for k in range(self.passes):
                journal = self.work / f"pass{self.n_measures}-{k}.jsonl"
                paused = [0.0]
                last_group: list[Any] = [None]

                def progress(event, k=k, paused=paused, last_group=last_group):
                    if event.triple[:2] == last_group[0]:
                        return
                    last_group[0] = event.triple[:2]
                    start_pause = time.perf_counter()
                    m.clock.sample(k)
                    if self.tracer is not None:
                        self.tracer.unit = (k, event.completed)
                    paused[0] += time.perf_counter() - start_pause

                if self.tracer is not None:
                    self.tracer.unit = (k, 0)
                start = time.perf_counter()
                outcome = self.api.run_campaign(
                    self.configs, scheduler_keys=self.keys, replicates=1,
                    base_seed=child_seed(self.seed, k), checkpoint=journal,
                    progress=progress,
                )
                report = self.api.report(journal, self.work / f"report{self.n_measures}-{k}")
                m.raw.append(time.perf_counter() - start - paused[0])
                m.clock.sample(k, k + 1)
                m.latencies.append(m.raw[-1])
                m.latency_units.append(k)
                journal_bytes += journal.stat().st_size
                outcomes.append((outcome, report))
        finally:
            self.runner.simulate = original
        m.extra["journal_bytes"] = journal_bytes
        for outcome, report in outcomes:
            self._check(m, outcome, report)
        for instance, result in captured:
            problems = result.schedule.violations(instance)
            if problems:
                m.problems.append(f"invalid schedule from {result.scheduler_name}: {problems[:2]}")
        return m

    def _check(self, m: Measurement, outcome: Any, report: Any) -> None:
        expected = len(self.configs) * len(self.keys)
        m.attempted += expected
        m.records += len(outcome)
        if len(outcome) != expected:
            m.problems.append(f"campaign returned {len(outcome)} records, expected {expected}")
        if not report.merged.complete:
            m.problems.append(f"report coverage incomplete: {len(report.merged.missing)} missing")
        offline: dict[tuple[str, int], float] = {}
        for record in outcome:
            if record.failed or not math.isfinite(record.max_stretch):
                m.failed += 1
                continue
            m.max_stretch.append(record.max_stretch)
            m.sum_stretch.append(record.sum_stretch)
            if record.scheduler == "Offline":
                offline[(record.config, record.replicate)] = record.max_stretch
        for record in outcome:
            best = offline.get((record.config, record.replicate))
            # No schedule beats the off-line optimum, up to LP tolerance.
            if best is not None and not record.failed and record.max_stretch < best * (1 - 1e-6):
                m.problems.append(
                    f"{record.scheduler} beats the off-line optimum on "
                    f"{record.config} r{record.replicate}: {record.max_stretch} < {best}"
                )


class CampaignPaper(Campaign):
    name = "campaign-paper"
    SITES = (3, 10)
    #: 20 jobs give 24 (configuration, replicate) groups in a 20 s run; at
    #: 25 jobs, 16 groups left a 13 % seed-to-seed spread in max-stretch.
    MAX_JOBS = 20
    NOMINAL_PASS_S = 7.0


class CampaignHeuristics(Campaign):
    name = "campaign-heuristics"
    SITES = (10, 20)
    #: 40 jobs, not the ~200 of a paper instance: on a 2-core container a
    #: 200-job group of six heuristics takes ~4 s, and the 5 groups a run
    #: could hold left a 15-20 % seed-to-seed spread.  40 jobs give 24.
    MAX_JOBS = 40
    SCHEDULERS = ("swrpt", "srpt", "spt", "bender02", "mct-div", "mct")
    NOMINAL_PASS_S = 6.0


# -- daemon-stream ----------------------------------------------------------------------


class DaemonStream(Workload):
    """An open-loop GriPPS stream into a ``serve`` child over HTTP.

    The daemon runs at its defaults (``online``, on-arrival, ``auto``
    backend, the default platform of ``serve``) with a journal.  The
    stream is a Poisson GriPPS stream at density ``DENSITY`` on that
    platform, in virtual time; ``--time-scale`` maps it onto
    ``RATE_PER_S`` submissions per wall second.  Each submission is one
    fresh connection (independent users), at most one in flight, timed
    from its due time.  The latency is printed but not gated: it moved
    18-32 % between the runs of one ten-run set, raw or scaled by the
    reference kernel (which can only run before boot and after exit).
    """

    name = "daemon-stream"
    #: Offered submissions per wall second.  The engine spends ~9 ms of
    #: interpreter time per admission, so 26/s keeps it ~25 % busy.  At
    #: 52/s (~50 % busy) queueing for the interpreter lock amplified every
    #: change in the machine's load: p50 latency moved 21-70 % between runs.
    #: Saturation starts near 65-70/s (the generator falls behind, releases
    #: shift and the schedule itself changes).
    RATE_PER_S = 26.0
    #: Workload density of the stream.  Databanks 1 and 2 of the default
    #: platform share one site, so density 0.15 loads it to ~30 %; at 0.3
    #: the per-window max-stretch moved 25 % between seeds.
    DENSITY = 0.15
    #: Submissions per quality record (max-stretch is taken per window).
    WINDOW = 16
    #: Reference samples before boot and after exit.
    REFERENCE_SAMPLES = 6

    def setup(self) -> None:
        sys.path.insert(0, str(SRC))
        import repro.workload.generator as gen

        # The default platform of `serve` (3 sites, 3 databanks, seed 0).
        spec = gen.PlatformSpec(n_clusters=3, processors_per_cluster=10,
                                n_databanks=3, availability=0.6)
        platform, catalog = gen.generate_platform(spec, rng=0)
        virtual_rate = self.DENSITY * sum(
            platform.aggregate_speed(name) / catalog.size_of(name) for name in catalog.names()
        )
        n_jobs = math.ceil(self.RATE_PER_S * self.seconds)
        jobs = gen.generate_workload(
            platform, catalog,
            gen.WorkloadSpec(density=self.DENSITY, window=3 * n_jobs / virtual_rate,
                             max_jobs=n_jobs),
            rng=child_seed(self.seed, 0),
        )
        # Map the stream's virtual span onto exactly n_jobs / RATE_PER_S
        # wall seconds, so every seed offers the same rate.
        self.time_scale = jobs[-1].release * self.RATE_PER_S / n_jobs
        self.stream = [(job.release / self.time_scale, job.size, job.databank) for job in jobs]
        self.work = WORK / f"{self.name}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.boots: list[float] = []  # scaled boot times of the measuring passes

    # -- child lifecycle -----------------------------------------------------------------
    def _boot(self, journal: Path, trace_out: Path | None) -> tuple[subprocess.Popen, str, float]:
        """Start a daemon child; return it, its address and its boot seconds."""
        cmd = [sys.executable, str(HERE / "daemon_child.py")]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        cmd += ["serve", "--journal", str(journal), "--time-scale", repr(self.time_scale)]
        start = time.perf_counter()
        with open(self.work / "daemon-stderr.log", "a", encoding="utf-8") as log:
            child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=log,
                                     text=True)
        address = ""
        for line in child.stdout:
            if line.startswith("serving on "):
                address = line.split("//", 1)[1].strip()
                break
        try:
            if not address:
                raise RuntimeError("daemon child exited before serving")
            while _request(address, "GET", "/healthz")[1].get("status") != "accepting":
                if time.perf_counter() - start > 60.0:
                    raise RuntimeError("daemon child never reported accepting")
                time.sleep(0.005)
        except BaseException:
            self._reap(child, kill=True)
            raise
        return child, address, time.perf_counter() - start

    @staticmethod
    def _reap(child: subprocess.Popen, kill: bool = False) -> float:
        """Wait for the child to exit; return its peak RSS in MB."""
        if kill:
            child.kill()
        child.stdout.close()
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        return usage.ru_maxrss / 1024.0

    def setup_samples(self, own: float, own_ref: float) -> list[float]:
        # Set-up is generating the stream plus booting until /healthz says
        # accepting: two throwaway boots plus the measuring pass's own.
        samples = []
        own_scaled = own * REFERENCE_NOMINAL_S / own_ref
        for k in range(2):
            ref = reference_sample()
            child, _, boot = self._boot(self.work / f"boot{k}.jsonl", None)
            child.send_signal(signal.SIGTERM)
            self._reap(child)
            samples.append(own_scaled + boot * REFERENCE_NOMINAL_S / ref)
        return samples + [own_scaled + boot for boot in self.boots[:1]]

    def measure(self) -> Measurement:
        from repro.service.daemon import verify_replay
        from repro.service.trace import read_trace

        m = Measurement(attempted=len(self.stream))
        journal = self.work / f"stream{len(self.boots)}.jsonl"
        trace_out = None
        if self.tracer is not None:
            trace_out = WORK / f"spans-{self.name}-{self.seed}.json"
        for _ in range(self.REFERENCE_SAMPLES):
            m.clock.sample(0)
        boot_ref = reference_sample()
        child, address, boot = self._boot(journal, trace_out)
        self.boots.append(boot * REFERENCE_NOMINAL_S / boot_ref)
        statuses: dict[int, int] = {}
        late: list[float] = []
        gc.disable()  # keep the generator's own pauses out of the latencies
        try:
            start = time.perf_counter() + 0.05
            for due_offset, size, databank in self.stream:
                due = start + due_offset
                now = time.perf_counter()
                if now < due:
                    time.sleep(due - now)
                late.append(time.perf_counter() - due)
                body = json.dumps({"size": size, "databank": databank})
                status, _ = _request(address, "POST", "/submit", body)
                m.latencies.append(time.perf_counter() - due)
                m.latency_units.append(0)
                statuses[status] = statuses.get(status, 0) + 1
            status, drained = _request(address, "POST", "/drain")
            m.raw.append(time.perf_counter() - start)
        except BaseException:
            self._reap(child, kill=True)
            raise
        finally:
            gc.enable()
        m.extra["rss_mb"] = self._reap(child)
        for _ in range(self.REFERENCE_SAMPLES):
            m.clock.sample(0)
        accepted = statuses.get(200, 0)
        m.failed = len(self.stream) - accepted
        m.extra.update(statuses=statuses, late=late, shed=statuses.get(503, 0),
                       trace_out=trace_out)
        if child.returncode != 0:
            m.problems.append(f"daemon exited with code {child.returncode}")
        if status != 200:
            m.problems.append(f"/drain answered {status}: {drained}")
            return m
        m.records = drained["n_jobs"]
        if accepted != len(self.stream):
            m.problems.append(f"accepted {accepted} of {len(self.stream)} submissions: {statuses}")
        if drained["n_jobs"] != accepted:
            m.problems.append(f"drained n_jobs {drained['n_jobs']} != accepted {accepted}")
        trace = read_trace(journal)
        check = verify_replay(trace)
        if not check.identical:
            m.problems.append(f"replay is not bit-identical to batch: {check.detail}")
        live = drained["metrics"]
        replayed = check.replay.metrics_row()
        if (live["max_stretch"], live["sum_stretch"]) != (
            replayed["max_stretch"], replayed["sum_stretch"]
        ):
            m.problems.append(f"daemon metrics {live} differ from its replay {replayed}")
        instance = trace.reconstruct_instance()
        problems = check.replay.schedule.violations(instance)
        if problems:
            m.problems.append(f"invalid schedule: {problems[:2]}")
        # The replay is the daemon's schedule (checked above); a quality
        # record is a window of consecutive submissions.
        stretches = check.replay.stretches()
        ordered = [stretches[job.job_id] for job in instance.jobs]
        for lo in range(0, len(ordered), self.WINDOW):
            window = ordered[lo: lo + self.WINDOW]
            m.max_stretch.append(max(window))
            m.sum_stretch.append(sum(window))
        return m

    def rss_mb(self, m: Measurement) -> float:
        return m.extra["rss_mb"]

    def end_to_end(self, m: Measurement, setup: list[float]) -> dict[str, tuple[float, str]]:
        metrics = super().end_to_end(m, setup)
        # Completed jobs over first due time -> drained result: bounded by
        # the offered rate, so it is a guard and is not scaled.
        metrics["records_per_s"] = (m.records / m.raw[0], "1/s")
        return metrics

    def notes(self, m: Measurement) -> list[str]:
        late = m.extra["late"]
        return super().notes(m) + [
            f"offered {self.RATE_PER_S:g}/s (time scale {self.time_scale:.4f}), "
            f"{len(self.stream)} submissions, responses {m.extra['statuses']}, "
            f"generator late p50={percentile(late, 50) * 1e3:.3f} ms "
            f"p99={percentile(late, 99) * 1e3:.3f} ms",
        ]


def _request(address: str, method: str, path: str, body: str | None = None,
             timeout: float = 120.0) -> tuple[int, dict[str, Any]]:
    """One request on a fresh connection (each submitter is an independent user)."""
    host, port = address.rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (SimulateOnline, CampaignPaper, CampaignHeuristics, DaemonStream)
}
