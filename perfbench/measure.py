"""Statistics and the machine-speed reference shared by every workload.

Nothing here imports the program under test, so the self-tests run without it.

The machine this benchmark runs on is shared: its speed drifts by 20-40 %
between back-to-back repeats of the same work.  :class:`ReferenceClock`
times a fixed, benchmark-owned kernel (interpreter work plus small numpy
work) around and inside units, while no program thread runs, and timings
are reported scaled to :data:`REFERENCE_NOMINAL_S`, the kernel's typical
time on the machine the bounds were tuned on.  A unit that ran while the
machine was slow (kernel slower than nominal) is scaled down by the same
factor.  The raw values are printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

#: Typical time of one :func:`reference_kernel` call on the tuning machine
#: (2-core x86-64 container, CPython 3.11, numpy 2.4).  Scaled timings read
#: as if every unit had run at this speed.
REFERENCE_NOMINAL_S = 0.0140

#: Kernel calls per reference sample; the sample is their mean.
REFERENCE_REPEATS = 3

#: A tail percentile is only reported when at least this many samples lie
#: beyond it.
TAIL_MIN_BEYOND = 10

#: Candidate tail percentiles, highest first.
_TAIL_CANDIDATES = (99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (numpy's default rule)."""
    if not len(values):
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=np.float64), pct))


def tail_percentile(n: int) -> float:
    """The highest percentile, up to p99, with >= 10 samples beyond it.

    Falls back to the median when even p50 has fewer than ten samples
    beyond it: with so few samples no tail can be told from noise.
    """
    for pct in _TAIL_CANDIDATES:
        if n * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            return pct
    return 50.0


def reference_kernel() -> float:
    """A fixed single-threaded workload: dict/list/float interpreter work
    plus small dense and sorting numpy calls, like the program's mix."""
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(16000):
        key = (i * 7919) % 1021
        acc += table.get(key, 0.5) * 1.000001
        table[key] = acc % 97.0
        if i % 3 == 0:
            acc -= min(acc, float(key)) * 0.25
    items = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    rng = np.random.default_rng(20060101)
    matrix = rng.random((60, 60)) + np.eye(60) * 60.0
    for _ in range(110):
        vec = np.linalg.solve(matrix, rng.random(60))
        acc += float(np.sort(vec)[30]) + float(np.cumsum(vec)[-1])
    return acc + items[0][1]


def reference_sample(repeats: int = REFERENCE_REPEATS) -> float:
    """Mean wall time of ``repeats`` kernel calls."""
    total = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        reference_kernel()
        total += time.perf_counter() - start
    return total / repeats


@dataclass
class ReferenceClock:
    """Reference samples tagged with the units they describe.

    The machine's speed flickers on a scale of milliseconds, so one sample
    says little; a unit is scaled by the mean of every sample taken at its
    boundaries and, where the workload can pause, inside it.
    """

    samples: dict[int, list[float]] = field(default_factory=dict)

    def sample(self, *units: int) -> float:
        """Time the kernel now and file the sample under each of ``units``."""
        value = reference_sample()
        for unit in units:
            self.samples.setdefault(unit, []).append(value)
        return value

    def factor(self, unit: int) -> float:
        """Multiply unit ``unit``'s raw time by this to get its scaled time."""
        values = self.samples.get(unit)
        if not values:
            raise ValueError(f"no reference sample for unit {unit}")
        return REFERENCE_NOMINAL_S / statistics.fmean(values)

    def all_samples(self) -> list[float]:
        return [v for values in self.samples.values() for v in values]


def scale_times(raw: list[float], clock: ReferenceClock) -> list[float]:
    """Per-unit scaled times: ``raw[k]`` times unit ``k``'s factor."""
    return [value * clock.factor(k) for k, value in enumerate(raw)]
