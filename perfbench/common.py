"""Shared pieces of the benchmark runner: statistics, the host clock
that scales times to a reference host speed, an in-memory span recorder
with Chrome ``trace_event`` export, and the end-to-end metric helpers.

Nothing here imports the program under test; the workloads do that.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Tail percentiles, highest first.  A workload names the rung it
#: reports; a run with too few ops for it falls back to the next rung.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of *values* (0 <= pct <= 100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(values: Sequence[float], highest: float) -> Tuple[float, str]:
    """``(value, label)`` of the highest ladder percentile, at most
    *highest*, with at least ``TAIL_BEYOND`` samples beyond it; the
    maximum when no rung has that many."""
    count = len(values)
    for pct in TAIL_LADDER:
        if pct <= highest and count * (100.0 - pct) / 100.0 >= TAIL_BEYOND:
            return percentile(values, pct), f"p{pct:g}"
    return max(values), "max"


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def peak_rss_mb_self() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set size of a live process, read from /proc."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def median_of(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int
    op: int
    track: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Spans kept in memory, written out once when the run ends.

    A span has a name, start, end, parent span and op id.  Each op has one
    root span named ``op``; the layers of that op are its children.  A
    layer timed by replaying the op in-process afterwards is still a
    child of the op's root, recorded on the ``replay`` track, so the
    op's self time is the part of its wall time no layer accounts for.
    """

    ROOT = "op"

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.origin = time.perf_counter()
        self._lock = threading.Lock()  # client threads share one recorder

    def begin(self, name: str, parent: int = -1, op: int = -1,
              track: str = "main") -> int:
        """Open a span now; :meth:`end` closes it.  Returns its id."""
        with self._lock:
            sid = len(self.spans)
            now = time.perf_counter()
            self.spans.append(Span(sid, name, now, now, parent, op, track))
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()

    def timed(self, name: str, func, *args, parent: int = -1, op: int = -1,
              track: str = "main", **kwargs):
        """Call ``func(*args, **kwargs)`` inside a span; returns its value."""
        sid = self.begin(name, parent, op, track)
        value = func(*args, **kwargs)
        self.end(sid)
        return value

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """Span id → duration minus the durations of its children."""
        child: Dict[int, float] = {}
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] = child.get(span.parent, 0.0) \
                    + span.duration
        return {span.sid: span.duration - child.get(span.sid, 0.0)
                for span in self.spans}

    def op_roots(self) -> List[Span]:
        return [span for span in self.spans if span.name == self.ROOT]

    def layer_table(self) -> Tuple[List[Tuple[str, int, float, float]],
                                   float, float]:
        """Per-layer self time over the ops that have a root span.

        Returns ``(rows, op_wall_ms_median, uncovered_share)`` where each
        row is ``(layer, count, self_ms_per_op, share_of_op_wall)``, the
        uncovered share is the roots' own self time over their wall time,
        and the rows plus the uncovered share sum to 1 of the op wall.
        """
        roots = self.op_roots()
        if not roots:
            return [], 0.0, 0.0
        root_ids = {span.sid for span in roots}
        selfs = self.self_times()
        wall = sum(span.duration for span in roots)
        by_layer: Dict[str, List[float]] = {}
        for span in self.spans:
            if span.op < 0 or span.sid in root_ids:
                continue
            if not self._under(span, root_ids):
                continue
            by_layer.setdefault(span.name, []).append(selfs[span.sid])
        rows = [(name, len(times), 1e3 * sum(times) / len(roots),
                 sum(times) / wall)
                for name, times in sorted(by_layer.items())]
        uncovered = sum(selfs[sid] for sid in root_ids) / wall
        return rows, 1e3 * median_of([s.duration for s in roots]), uncovered

    def _under(self, span: Span, roots: set) -> bool:
        parent = span.parent
        while parent >= 0:
            if parent in roots:
                return True
            parent = self.spans[parent].parent
        return False

    def median_ms(self, name: str) -> float:
        """Median duration of the spans named *name*, in milliseconds."""
        return median_of([1e3 * span.duration for span in self.spans
                          if span.name == name])

    # -- export ---------------------------------------------------------------

    def write_chrome_trace(self, path: str, workload: str, seed: int) -> int:
        """Chrome ``trace_event`` JSON (complete events, microseconds),
        the same shape as the program's own ``--trace`` output."""
        tracks: Dict[str, int] = {}
        events = []
        for span in self.spans:
            tid = tracks.setdefault(span.track, len(tracks) + 1)
            events.append({
                "name": span.name, "cat": "perfbench", "ph": "X",
                "ts": round((span.start - self.origin) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": os.getpid(), "tid": tid,
                "args": {"sid": span.sid, "parent": span.parent,
                         "op": span.op},
            })
        for track, tid in tracks.items():
            events.append({"name": "thread_name", "ph": "M",
                           "pid": os.getpid(), "tid": tid,
                           "args": {"name": track}})
        payload = {"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": {"workload": workload, "seed": seed}}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")
        return len(events)


def format_layer_table(recorder: SpanRecorder) -> str:
    rows, wall_ms, uncovered = recorder.layer_table()
    lines = [f"traced ops: {len(recorder.op_roots())}, median op wall "
             f"{wall_ms:.3f} ms",
             f"{'layer':<28s} {'spans':>6s} {'self ms/op':>11s} "
             f"{'share':>7s}"]
    for name, count, self_ms, share in rows:
        lines.append(f"{name:<28s} {count:>6d} {self_ms:>11.3f} "
                     f"{100 * share:>6.2f}%")
    lines.append(f"{'(uncovered by any span)':<28s} {'':>6s} {'':>11s} "
                 f"{100 * uncovered:>6.2f}%")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: per-layer counts that must repeat exactly across runs of one seed
    exact: Dict[str, float] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def count(self, name: str, value: float, exact: bool = True) -> None:
        self.put(name, value, "count")
        if exact:
            self.exact[name] = float(value)

    def fail(self, reason: str, ops: int = 1) -> None:
        self.failed += ops
        self.correct = False
        self.notes.append(f"FAIL: {reason}")

    def ratio(self, name: str, numerator: float, denominator: float
              ) -> None:
        self.put(name, numerator / denominator if denominator else 0.0,
                 "ratio")


#: A chunk of a closed loop: ``(start, end, ops)``, each op ``(t0, t1)``,
#: all in seconds of :func:`wall`.
Chunk = Tuple[float, float, List[Tuple[float, float]]]

#: The calibration time, in seconds, of the reference host speed: times
#: are reported as they would read on a host where one calibration pass
#: takes this long.
CAL_REFERENCE_S = 2.5e-3
#: The longest a loop runs between two samples of the host's speed.
CAL_INTERVAL_S = 0.2


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key, self.value = key, value


def _calibration_work() -> float:
    """A fixed mix of what the program spends its time on: small objects,
    dict lookups keyed by tuples, float arithmetic and tiny numpy
    solves.  It is benchmark code, so no change to the program
    changes it."""
    table: Dict[Tuple[int, int], float] = {}
    for cell in [_Cell(i, i * 0.5) for i in range(3000)]:
        key = (cell.key % 97, cell.key % 13)
        table[key] = table.get(key, 0.0) + cell.value * 1.0001
    matrix = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
    total = min(table.values())
    for step in range(80):
        total += float(np.linalg.solve(
            matrix, np.array([1.0, step * 0.1, 2.0]))[1])
    return total


class HostClock:
    """Host speed, sampled between ops, so that times can be reported at
    the reference speed (:data:`CAL_REFERENCE_S`).

    The host this was built on runs the same op up to 1.9x slower for
    tens of minutes at a time, which no bound of 25% can absorb, and
    switches speed within seconds too.  A workload calls :meth:`sample`
    only while none of its ops, set-ups or child processes is running:
    between the short chunks of its loop (:meth:`run_chunks`) and around
    each group of set-ups.  An interval is scaled by the samples on
    either side of it.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []

    def sample(self) -> None:
        # An untimed pass first, and the collector off, so that a sample
        # does not depend on how much memory the program holds.
        collecting = gc.isenabled()
        gc.disable()
        try:
            _calibration_work()
            passes = []
            for _ in range(3):
                start = wall()
                _calibration_work()
                passes.append(wall() - start)
        finally:
            if collecting:
                gc.enable()
        self.samples.append((wall(), min(passes)))

    def run_chunks(self, run_chunk, seconds: float) -> None:
        """Call ``run_chunk(chunk_seconds)`` for chunks of at most
        :data:`CAL_INTERVAL_S` until *seconds* have passed, at least
        once, with a sample before each chunk and after the last."""
        deadline = wall() + seconds
        self.sample()
        while True:
            run_chunk(min(CAL_INTERVAL_S, max(0.0, deadline - wall())))
            self.sample()
            if wall() >= deadline:
                return

    def calibration_s(self, start: float, end: float) -> float:
        """Mean of the last sample taken before *start* and the first
        taken after *end* (the nearest one where a side has none)."""
        times = [when for when, _ in self.samples]
        before = bisect.bisect_right(times, start) - 1
        after = bisect.bisect_left(times, end)
        sides = [self.samples[i][1] for i in (before, after)
                 if 0 <= i < len(self.samples)]
        return sum(sides) / len(sides)

    def scaled(self, start: float, end: float) -> float:
        """The interval's length at the reference host speed."""
        return (end - start) * CAL_REFERENCE_S / self.calibration_s(start,
                                                                      end)

    def median_s(self) -> float:
        return median_of([value for _, value in self.samples])


def op_metrics(outcome: Outcome, clock: HostClock, chunks: Sequence[Chunk],
               tail_pct: float) -> None:
    """The latency and throughput end-to-end metrics of a closed loop,
    each op and chunk scaled to the reference host speed.

    The tail is one percentile, fixed per workload (*tail_pct*), so
    runs of one workload report one percentile.
    """
    scaled = [1e3 * clock.scaled(t0, t1)
              for _, _, ops in chunks for t0, t1 in ops]
    raw = [1e3 * (t1 - t0) for _, _, ops in chunks for t0, t1 in ops]
    seconds = sum(clock.scaled(start, end) for start, end, _ in chunks)
    raw_seconds = sum(end - start for start, end, _ in chunks)
    value, label = tail(scaled, tail_pct)
    beyond = sum(1 for latency in scaled if latency > value)
    outcome.put("op_p50_ms", percentile(scaled, 50.0), "ms")
    outcome.put("op_tail_ms", value, "ms")
    outcome.put("ops_per_s", len(scaled) / seconds, "1/s")
    outcome.put("host.op_p50_raw_ms", percentile(raw, 50.0), "ms")
    outcome.put("host.ops_per_s_raw", len(raw) / raw_seconds, "1/s")
    outcome.put("host.calibration_ms", 1e3 * clock.median_s(), "ms")
    outcome.notes.append(
        f"{len(scaled)} ops; op_tail_ms is {label}, {beyond} ops beyond "
        f"it; unscaled, the median op took {percentile(raw, 50.0):.4f} ms "
        f"and the rate was {len(raw) / raw_seconds:.4f}/s; calibration "
        f"median {1e3 * clock.median_s():.4f} ms over "
        f"{len(clock.samples)} samples")


def setup_metric(outcome: Outcome, clock: HostClock,
                 setups: Sequence[Tuple[float, float]]) -> None:
    """``setup_s``: the median of the run's set-ups, each scaled to the
    reference host speed."""
    times = [clock.scaled(start, end) for start, end in setups]
    raw = [end - start for start, end in setups]
    outcome.put("setup_s", median_of(times), "s")
    outcome.put("host.setup_raw_s", median_of(raw), "s")
    outcome.notes.append(
        f"setup_s is the median of {len(times)} set-ups: "
        + ", ".join(f"{value:.4f}" for value in times)
        + f" s; unscaled, their median is {median_of(raw):.4f} s")


def wall() -> float:
    return time.perf_counter()


def snapshot_arrivals(result) -> Dict[Tuple[str, str], Tuple[float, float]]:
    """A copy of a result's arrivals; the result itself is never touched
    beyond reading (its dict aliases the analyzer's carryover)."""
    return {(event.node, event.transition.value): (arrival.time,
                                                   arrival.slope)
            for event, arrival in result.arrivals.items()}


def env_with_src(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env
