"""The four benchmark workloads.

Each ``run_*`` function takes a :class:`Context` and returns an
:class:`~common.Outcome` holding the end-to-end metrics (always) and the
per-layer metrics (traced runs).  Every workload is a closed loop: a
caller issues its next op only after the previous one returned.

The program is driven only through its public entry points:
``python -m repro.cli timing`` and ``serve`` as child processes,
:class:`TimingAnalyzer` ``analyze``/``analyze_delta``, ``order_vectors``
and :class:`ServiceClient` ``analyze``.  Per-layer times come from spans
the benchmark records around those calls (see ``common.SpanRecorder``).
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from common import (
    TAIL_BEYOND,
    Chunk,
    HostClock,
    Outcome,
    SpanRecorder,
    env_with_src,
    median_of,
    op_metrics,
    peak_rss_mb_of,
    peak_rss_mb_self,
    setup_metric,
    snapshot_arrivals,
    wall,
)

from repro.batch import CartesianSweep, RandomVectors, order_vectors
from repro.batch.vectors import parse_timing_token, with_default_slope
from repro.bench.harness import run_suite
from repro.bench.scenarios import cmos_scenarios
from repro.circuits import adder_input_names, ripple_carry_adder
from repro.core.models import SlopeModel, characterize_technology
from repro.core.models.characterize import clear_cache
from repro.core.timing import TimingAnalyzer, arrival_table, format_worst_paths
from repro.core.timing.analyzer import InputSpec
from repro.errors import ServiceError
from repro.netlist import sim_format
from repro.service import (
    AnalyzerPool,
    ServiceClient,
    decode_arrivals,
    encode_inputs,
    encode_result,
    parse_analyze_request,
)
from repro.tech import CMOS3

#: The served workload starts this many daemons (each characterizes).
SERVE_SETUPS = 2
#: Client threads of the served workload.
SERVE_CLIENTS = 2
#: Ops checked against the brute-force reference per run.
CHECK_SAMPLES = 6
#: Per-op counts are means over this many leading ops, so they do not
#: depend on how many ops a run's clock allowed.
COUNT_OPS = {"sweep-rca32-full": 32, "sweep-rca32-delta": 128,
             "serve-rca32": 16}
#: The percentile each workload reports as ``op_tail_ms``: the highest
#: rung that keeps at least ten ops beyond it at the declared run length.
#: The loop runs at least :func:`min_ops` ops, so a slow host does not
#: push the tail down a rung.
TAIL_PCT = {"cli-timing-datapath": 50.0, "sweep-rca32-full": 90.0,
            "sweep-rca32-delta": 99.0, "serve-rca32": 90.0}
#: The loop runs in this many parts, one before each scenario of the
#: accuracy suite; each part is cut into chunks of at most
#: ``common.CAL_INTERVAL_S``, with the host's speed sampled between them.
PARTS = 10
#: Sweep set-ups after each part of the timed loop.
SWEEP_SETUPS_PER_PART = 2
CHILD_TIMEOUT_S = 150.0
ADDER_BITS = 32
DATAPATH = os.path.join("examples", "datapath.sim")
#: Seeded arrival times are whole picoseconds in [0, ARRIVAL_SPAN_PS].
ARRIVAL_SPAN_PS = 1000


def min_ops(workload: str) -> int:
    """Ops that leave ``TAIL_BEYOND`` beyond the workload's tail rung."""
    return math.ceil(TAIL_BEYOND * 100.0 / (100.0 - TAIL_PCT[workload]))


@dataclass
class Context:
    root: str
    workload: str
    seed: int
    seconds: float
    traced: bool
    spans: SpanRecorder = field(default_factory=SpanRecorder)
    clock: HostClock = field(default_factory=HostClock)
    outcome: Outcome = field(default_factory=Outcome)


# ---------------------------------------------------------------------------
# Shared steps
# ---------------------------------------------------------------------------

def characterize(ctx: Context):
    """Characterize CMOS3 from scratch in this process, outside any
    clock; never cached across runs."""
    clear_cache()
    tech = ctx.spans.timed("characterize", characterize_technology, CMOS3)
    if ctx.traced:
        ctx.outcome.put("characterize.ms",
                        ctx.spans.median_ms("characterize"), "ms")
        ctx.outcome.count("characterize.points", sum(
            len(result.points) + 1  # + the step-input fit
            for result in tech.characterization.values()))
    return tech


def slope_error(ctx: Context, scenarios, before_each=None) -> None:
    """The accuracy metrics: the slope model against the analog
    simulator over the CMOS T2 scenarios (``cmos_scenarios``), outside
    any clock.  ``before_each()``, when given, runs before each scenario,
    so a workload can spread its set-ups and timed ops over the suite."""
    if before_each is not None and len(scenarios) != PARTS:
        raise RuntimeError(f"the accuracy suite has {len(scenarios)} "
                           f"scenarios; the loop expects {PARTS}")
    rows = []
    for scenario in scenarios:
        if before_each is not None:
            before_each()
        rows += ctx.spans.timed("analog.slope_error", run_suite, [scenario],
                                [SlopeModel()])
    errors = [100.0 * abs(row.estimate("slope").error) for row in rows]
    ctx.outcome.put("slope_err_mean_pct", sum(errors) / len(errors), "%")
    ctx.outcome.put("slope_err_max_pct", max(errors), "%")


def cold_counts(ctx: Context, perf) -> None:
    if not ctx.traced:
        return
    out = ctx.outcome
    out.count("timing.cold.path_enumerations", perf.get("path_enumerations"))
    out.count("rctree.cold.template_compiles",
              perf.get("tree_template_misses"))
    out.count("rctree.cold.template_shared", perf.get("tree_template_shared"))
    out.count("models.cold.model_evals", perf.get("model_evals"))


def check_identical(ctx: Context, what: str, counts: List[Tuple]) -> None:
    """Counters of repeated identical work must repeat exactly."""
    if any(entry != counts[0] for entry in counts):
        ctx.outcome.fail(f"{what} counts differ between repeats: {counts}")


COLD_KEYS = ("path_enumerations", "tree_template_misses",
             "tree_template_shared", "model_evals", "stage_visits")


def per_op_counts(ctx: Context, perfs: List) -> None:
    """Warm and delta counts per op, as means over the leading ops."""
    if not ctx.traced:
        return
    out = ctx.outcome
    total: Dict[str, int] = {}
    for perf in perfs:
        for name, value in perf.counters.items():
            total[name] = total.get(name, 0) + value
    ops = len(perfs)

    def mean(name: str) -> float:
        return total.get(name, 0) / ops

    out.count("timing.stage_visits", mean("stage_visits"))
    out.count("timing.candidates", mean("candidates"))
    out.count("timing.worklist_pushes", mean("worklist_pushes"))
    out.ratio("timing.stale_pop_ratio", total.get("worklist_stale_pops", 0),
              total.get("worklist_pushes", 0))
    out.count("models.model_evals", mean("model_evals"))
    hits = total.get("model_cache_hits", 0)
    out.ratio("models.cache_hit_ratio", hits,
              hits + total.get("model_cache_misses", 0))
    out.count("rctree.template_hits", mean("tree_template_hits"))
    out.count("rctree.kernel_batches", mean("kernel_batches"))
    delta_counts(ctx, total, ops)


def delta_counts(ctx: Context, total: Dict[str, int], ops: int) -> None:
    out = ctx.outcome
    cone = total.get("cone_stages", 0)
    skipped = total.get("stages_skipped", 0)
    out.count("timing.cone_stages", cone / ops)
    out.ratio("timing.skip_ratio", skipped, skipped + cone)
    out.count("timing.arrivals_reused", total.get("arrivals_reused", 0) / ops)


def seeded_times(seed: object, names: List[str]) -> Dict[str, int]:
    """Whole-picosecond arrivals for *names*, fixed by *seed*."""
    rng = random.Random(f"perfbench:{seed}")
    return {name: rng.randint(0, ARRIVAL_SPAN_PS) for name in names}


def spec(ps: int) -> InputSpec:
    return InputSpec(arrival_rise=ps * 1e-12, arrival_fall=ps * 1e-12)


def sample_indices(ctx: Context, label: str, population: int) -> List[int]:
    rng = random.Random(f"perfbench:{ctx.seed}:sample:{label}")
    return sorted(rng.sample(range(population), CHECK_SAMPLES))


def overhead(ctx: Context, traced: List[float], untraced: List[float]
             ) -> None:
    """``trace.overhead_pct``: traced ops against untraced ops of the
    same run, which alternate so host drift hits both alike."""
    if not ctx.traced:
        return
    base = median_of(untraced)
    ctx.outcome.put("trace.overhead_pct",
                    100.0 * (median_of(traced) / base - 1.0) if base else 0.0,
                    "%")
    _, _, uncovered = ctx.spans.layer_table()
    ctx.outcome.put("trace.uncovered_pct", 100.0 * uncovered, "%")


def report_ops(ctx: Context, chunks: List[Chunk]) -> None:
    """The end-to-end metrics of a loop run in *chunks*."""
    op_metrics(ctx.outcome, ctx.clock, chunks, TAIL_PCT[ctx.workload])
    ctx.outcome.attempted = sum(len(ops) for _, _, ops in chunks)


# ---------------------------------------------------------------------------
# sweep-rca32-full and sweep-rca32-delta: one warm analyzer in-process
# ---------------------------------------------------------------------------

def _adder(tech):
    return ripple_carry_adder(tech, ADDER_BITS)


class _Setups:
    """The repeated set-ups of a sweep workload: build a fresh analyzer
    and run its cold first analysis.  ``order`` is called inside the
    clock when the workload orders its vectors during set-up."""

    def __init__(self, ctx: Context, network, first_inputs, order=None):
        self.ctx = ctx
        self.network = network
        self.first_inputs = first_inputs
        self.order = order
        self.times: List[Tuple[float, float]] = []
        self.counts: List[Tuple] = []
        self.analyzer = None
        self.perf = None

    def once(self) -> None:
        spans = self.ctx.spans
        self.analyzer = None  # the previous analyzer is not kept alive
        start = wall()
        root = spans.begin("setup")
        analyzer = spans.timed("timing.build", TimingAnalyzer, self.network,
                               parent=root)
        if self.order is not None:
            spans.timed("batch.order", self.order, parent=root)
        result = spans.timed("timing.cold", analyzer.analyze,
                             self.first_inputs, parent=root)
        spans.end(root)
        self.times.append((start, wall()))
        self.counts.append(tuple(result.perf.get(k) for k in COLD_KEYS))
        self.analyzer, self.perf = analyzer, result.perf

    def report(self) -> None:
        ctx, spans = self.ctx, self.ctx.spans
        check_identical(ctx, "cold analysis", self.counts)
        setup_metric(ctx.outcome, ctx.clock, self.times)
        if ctx.traced:
            for layer in ("timing.build", "timing.cold") + (
                    ("batch.order",) if self.order is not None else ()):
                ctx.outcome.put(layer + "_ms", spans.median_ms(layer), "ms")
        cold_counts(ctx, self.perf)


class _SweepLoop:
    """The timed closed loop of a sweep workload, run in chunks between
    other work, so that its ops sample the host's speed over the whole
    run rather than one stretch of it."""

    def __init__(self, ctx: Context, analyzer, stream, method: str,
                 layer: str, samples: List[int]):
        self.ctx = ctx
        self.call = getattr(analyzer, method)
        self.stream = stream
        self.layer = layer
        self.wanted = set(samples)
        #: ops the run must complete: the leading ops the counts are
        #: taken over, every sampled op, and enough for the tail rung
        self.needed = max(COUNT_OPS[ctx.workload], max(samples) + 1,
                          min_ops(ctx.workload))
        self.index = 0
        self.chunks: List[Chunk] = []
        self.traced: List[float] = []
        self.untraced: List[float] = []
        self.checked: Dict[int, Dict] = {}
        self.perfs: List = []

    def run(self, seconds: float, finish: bool = False) -> None:
        """Ops for *seconds*; with *finish*, also until every needed op
        has run."""
        self.ctx.clock.run_chunks(lambda chunk_s: self._chunk(
            chunk_s, finish), seconds)

    def _chunk(self, seconds: float, finish: bool) -> None:
        ctx, spans = self.ctx, self.ctx.spans
        count_ops = COUNT_OPS[ctx.workload]
        ops: List[Tuple[float, float]] = []
        start = wall()
        deadline = start + seconds
        while wall() < deadline or (finish and self.index < self.needed):
            index = self.index
            inputs = self.stream(index)
            trace_this = ctx.traced and index % 2 == 1
            t0 = wall()
            if trace_this:
                root = spans.begin("op", op=index)
                result = spans.timed(self.layer, self.call, inputs,
                                     parent=root, op=index)
                spans.end(root)
            else:
                result = self.call(inputs)
            t1 = wall()
            ops.append((t0, t1))
            (self.traced if trace_this else self.untraced).append(t1 - t0)
            if index in self.wanted:
                self.checked[index] = snapshot_arrivals(result)
            if index < count_ops:
                self.perfs.append(result.perf)
            self.index += 1
        self.chunks.append((start, wall(), ops))

    def report(self) -> None:
        ctx = self.ctx
        report_ops(ctx, self.chunks)
        ctx.outcome.put("peak_rss_mb", peak_rss_mb_self(), "MB")
        if ctx.traced:
            ctx.outcome.put(self.layer + "_ms",
                            ctx.spans.median_ms(self.layer), "ms")
        overhead(ctx, self.traced, self.untraced)
        per_op_counts(ctx, self.perfs)


def _sweep(ctx: Context, tech, setups: _Setups, stream, method: str,
           layer: str, samples: List[int]) -> Outcome:
    """The loop runs on the first set-up's analyzer, in one part before
    each scenario of the accuracy suite, and each part is followed by
    more set-ups.  The correctness check follows outside the clock."""
    ctx.clock.sample()
    setups.once()
    loop = _SweepLoop(ctx, setups.analyzer, stream, method, layer, samples)
    scenarios = cmos_scenarios(tech)

    def between() -> None:
        loop.run(ctx.seconds / PARTS)
        for _ in range(SWEEP_SETUPS_PER_PART):
            setups.once()
        ctx.clock.sample()

    slope_error(ctx, scenarios, before_each=between)
    loop.run(0.0, finish=True)
    loop.report()
    setups.report()
    _check_sweep(ctx, setups.network, loop.checked, stream)
    return ctx.outcome


def _check_sweep(ctx: Context, network, checked: Dict[int, Dict], stream
                 ) -> None:
    """Sampled ops must be bit-identical to a brute-force reference."""
    reference = TimingAnalyzer(network, incremental=False)
    for index, arrivals in sorted(checked.items()):
        expected = snapshot_arrivals(reference.analyze(stream(index)))
        if arrivals != expected:
            ctx.outcome.fail(f"op {index}: arrivals differ from the "
                             "brute-force reference")


def run_sweep_full(ctx: Context) -> Outcome:
    tech = characterize(ctx)
    network = _adder(tech)
    names = adder_input_names(ADDER_BITS)
    vectors = [v.inputs for v in RandomVectors(
        input_names=names, count=512, seed=ctx.seed, span=1e-9)]

    def stream(index: int):
        return vectors[(index + 1) % len(vectors)]

    return _sweep(ctx, tech, _Setups(ctx, network, vectors[0]), stream,
                  "analyze", "timing.analyze",
                  sample_indices(ctx, "full", 64))


#: The Gray walk's axes: the five highest bits of each operand.  They are
#: fixed, not seeded, because the dirty cone of a flipped bit depends on
#: its position and the cone sets each op's cost.
DELTA_AXES = tuple(f"{side}{bit}" for side in "ab"
                   for bit in range(ADDER_BITS - 5, ADDER_BITS))


def delta_walk(seed: int) -> Tuple[CartesianSweep, List]:
    """A cartesian sweep over :data:`DELTA_AXES`, two seeded arrival
    times each, on a seeded base vector; and its vectors."""
    names = adder_input_names(ADDER_BITS)
    base_ps = seeded_times(f"{seed}:base", names)
    rng = random.Random(f"perfbench:{seed}:axes")
    axes = {}
    for name in DELTA_AXES:
        other = (base_ps[name] + rng.randint(1, ARRIVAL_SPAN_PS)) \
            % (ARRIVAL_SPAN_PS + 1)
        axes[name] = [spec(base_ps[name]), spec(other)]
    source = CartesianSweep(
        base={name: spec(ps) for name, ps in base_ps.items()}, axes=axes)
    return source, list(source)


def run_sweep_delta(ctx: Context) -> Outcome:
    tech = characterize(ctx)
    network = _adder(tech)
    source, vectors = delta_walk(ctx.seed)
    permutation: List[int] = []

    def order():
        permutation[:] = order_vectors(vectors, "gray", source)

    def stream(index: int):
        # The reflected binary Gray walk is cyclic: wrapping around
        # still changes one input per step.
        return vectors[permutation[(index + 1) % len(permutation)]].inputs

    # The Gray walk starts at the all-zero digit vector, position 0.
    return _sweep(ctx, tech, _Setups(ctx, network, vectors[0].inputs,
                                     order=order), stream,
                  "analyze_delta", "timing.analyze_delta",
                  sample_indices(ctx, "delta", 256))


# ---------------------------------------------------------------------------
# cli-timing-datapath: one fresh CLI process per op
# ---------------------------------------------------------------------------

_LIST_INPUTS = (
    "import sys; from repro.netlist import sim_format; "
    "from repro.tech import CMOS3; "
    "print(' '.join(n.name for n in sim_format.load(sys.argv[1], CMOS3)"
    ".inputs()))")


def _child(ctx: Context, argv: List[str]) -> Tuple[int, str, str]:
    proc = subprocess.Popen(argv, cwd=ctx.root, env=env_with_src(ctx.root),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return -1, out, "timed out\n" + err
    return proc.returncode, out, err


def run_cli(ctx: Context) -> Outcome:
    out = ctx.outcome
    spans = ctx.spans
    # Set-up: a fresh interpreter discovers the netlist's primary inputs
    # (import + parse), which the seeded arrivals are then drawn for.
    setup_times: List[Tuple[float, float]] = []
    names: List[str] = []

    def setup() -> None:
        start = wall()
        code, text, err = _child(ctx, [sys.executable, "-c", _LIST_INPUTS,
                                       DATAPATH])
        setup_times.append((start, wall()))
        if code != 0:
            raise RuntimeError(f"listing inputs failed: {err.strip()}")
        if names and text.split() != names:
            out.fail("set-ups listed different inputs")
        names[:] = text.split()

    tokens_per_op: List[List[str]] = []
    results: List[Tuple[int, str, str]] = []
    traced, untraced, roots = [], [], {}
    chunks: List[Chunk] = []

    def chunk(seconds: float, needed: int) -> None:
        ops: List[Tuple[float, float]] = []
        start = wall()
        deadline = start + seconds
        while wall() < deadline or len(results) < needed:
            index = len(results)
            arrivals = seeded_times(f"{ctx.seed}:cli:{index}", names)
            tokens = [f"{name}={ps}p" for name, ps in arrivals.items()]
            argv = [sys.executable, "-m", "repro.cli", "timing", DATAPATH,
                    "--tech", "cmos3", "--no-characterize"]
            for token in tokens:
                argv += ["--input", token]
            trace_this = ctx.traced and index % 2 == 1
            t0 = wall()
            if trace_this:
                roots[index] = spans.begin("op", op=index)
            results.append(_child(ctx, argv))
            if trace_this:
                spans.end(roots[index])
            t1 = wall()
            ops.append((t0, t1))
            (traced if trace_this else untraced).append(t1 - t0)
            tokens_per_op.append(tokens)
        chunks.append((start, wall(), ops))

    def run(seconds: float, needed: int = 0) -> None:
        ctx.clock.run_chunks(lambda chunk_s: chunk(chunk_s, needed), seconds)

    # The technology for the accuracy suite is characterized first; the
    # loop then runs in one part before each scenario, and a set-up
    # follows each part.
    ctx.clock.sample()
    setup()
    ctx.clock.sample()
    tech = characterize(ctx)
    scenarios = cmos_scenarios(tech)

    def between() -> None:
        run(ctx.seconds / PARTS)
        setup()
        ctx.clock.sample()

    slope_error(ctx, scenarios, before_each=between)
    run(0.0, needed=min_ops(ctx.workload))
    report_ops(ctx, chunks)
    setup_metric(out, ctx.clock, setup_times)
    out.put("peak_rss_mb", resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, "MB")

    # Outside the clock: each child's report must equal the one formatted
    # in-process from the same inputs.  For traced ops the in-process
    # replay is also the layer breakdown: each layer is a child span of
    # the op, on the replay track.
    for index, ((code, text, err), tokens) in enumerate(
            zip(results, tokens_per_op)):
        root = roots.get(index, -1)
        if root >= 0:
            spans.timed("cli.import", _child, ctx,
                        [sys.executable, "-c", "import repro.cli"],
                        parent=root, op=index, track="replay")
        expected, _ = _report(spans, CMOS3, tokens, root, index)
        if code != 0:
            out.fail(f"op {index}: exit {code}: {err.strip()[-300:]}")
        elif text != expected:
            out.fail(f"op {index}: report differs from the in-process one")
    if ctx.traced:
        out.put("cli.import_ms", spans.median_ms("cli.import"), "ms")
        for layer in ("netlist.parse", "timing.build", "timing.cold"):
            out.put(layer + "_ms", spans.median_ms(layer), "ms")
        out.put("report.ms", spans.median_ms("report"), "ms")
        # The first op's counts: its vector is fixed by the seed alone.
        _, first_perf = _report(SpanRecorder(), CMOS3, tokens_per_op[0])
        cold_counts(ctx, first_perf)
    overhead(ctx, traced, untraced)
    return out


def _report(spans: SpanRecorder, tech, tokens: List[str], root: int = -1,
            op: int = -1):
    """The ``timing`` subcommand's report, formatted in-process."""
    kw = dict(parent=root, op=op, track="replay")
    network = spans.timed("netlist.parse", sim_format.load, DATAPATH, tech,
                          **kw)
    inputs = {}
    for token in tokens:
        name, parsed = parse_timing_token(token)
        inputs[name] = with_default_slope(parsed, 0.0)
    analyzer = spans.timed("timing.build", TimingAnalyzer, network,
                           model=SlopeModel(), **kw)
    result = spans.timed("timing.cold", analyzer.analyze, inputs, **kw)

    def report() -> str:
        return (format_worst_paths(result, count=5) + "\n\n"
                + arrival_table(result) + "\n")

    return spans.timed("report", report, **kw), result.perf


# ---------------------------------------------------------------------------
# serve-rca32: a daemon process and two blocking client threads
# ---------------------------------------------------------------------------

@dataclass
class _Daemon:
    proc: subprocess.Popen
    client: ServiceClient


def _start_daemon(ctx: Context) -> _Daemon:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
        cwd=ctx.root, env=env_with_src(ctx.root), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True)
    line = proc.stdout.readline()
    if "listening on http://" not in line:
        _stop_daemon(_Daemon(proc, None))
        raise RuntimeError(f"daemon did not start: {line.strip()!r}")
    host, port = line.rsplit("http://", 1)[1].strip().rsplit(":", 1)
    return _Daemon(proc, ServiceClient(host, int(port), timeout=120.0))


def _stop_daemon(daemon: _Daemon) -> None:
    if daemon.client is not None and daemon.proc.poll() is None:
        try:
            daemon.client.shutdown()
        except ServiceError:
            pass
    try:
        daemon.proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        daemon.proc.kill()
        daemon.proc.communicate()


def _serve_streams(seed: int) -> Tuple[List, List[List]]:
    names = adder_input_names(ADDER_BITS)
    warm = next(iter(RandomVectors(input_names=names, count=1,
                                   seed=seed * 10, span=1e-9)))
    streams = [[v.inputs for v in RandomVectors(
        input_names=names, count=256, seed=seed * 10 + 1 + client,
        span=1e-9)] for client in range(SERVE_CLIENTS)]
    return warm.inputs, streams


def run_serve(ctx: Context) -> Outcome:
    out = ctx.outcome
    # The reference technology is characterized before any daemon runs,
    # so the two never compete for the CPUs.
    tech = characterize(ctx)
    scenarios = cmos_scenarios(tech)
    netlist = sim_format.dumps(_adder(CMOS3))
    warm, streams = _serve_streams(ctx.seed)

    setup_times: List[Tuple[float, float]] = []
    daemons: List[_Daemon] = []
    #: ``/metrics`` of each daemon before and after its share of the loop
    snapshots: List[Tuple[Dict, Dict]] = []
    rss: List[float] = []
    loop = _ServeLoop(ctx, netlist, streams)

    def setup() -> None:
        ctx.clock.sample()
        start = wall()
        daemons.append(_start_daemon(ctx))
        daemons[-1].client.analyze(netlist, [("warm", warm)])
        setup_times.append((start, wall()))
        ctx.clock.sample()
        loop.client = daemons[-1].client
        snapshots.append((loop.client.metrics(), {}))

    def retire() -> None:
        daemon = daemons[-1]
        snapshots[-1] = (snapshots[-1][0], daemon.client.metrics())
        rss.append(peak_rss_mb_of(daemon.proc.pid))
        _stop_daemon(daemon)

    share = PARTS // SERVE_SETUPS
    parts_run: List[int] = []

    def between() -> None:
        # The loop runs in one part before each scenario of the accuracy
        # suite.  Each daemon serves an equal share of the parts, so the
        # loop spans every set-up but the first.
        if len(parts_run) == share * len(daemons) and \
                len(daemons) < SERVE_SETUPS:
            retire()
            setup()
        loop.run(ctx.seconds / PARTS)
        parts_run.append(1)

    try:
        setup()
        slope_error(ctx, scenarios, before_each=between)
        loop.run(0.0, finish=True)
        retire()
    finally:
        for started in daemons:
            if started.proc.poll() is None:
                _stop_daemon(started)

    setup_metric(out, ctx.clock, setup_times)
    out.put("peak_rss_mb", max(rss), "MB")
    ops = loop.ops
    report_ops(ctx, loop.chunks)
    for failure in loop.failures:
        out.fail(failure)

    network = sim_format.loads(netlist, tech, name="reference")
    reference = TimingAnalyzer(network, incremental=False)
    for (client, index), arrivals in sorted(loop.checked.items()):
        result = reference.analyze(streams[client][index])
        expected = decode_arrivals(json.loads(json.dumps(
            encode_result("ref", result))))
        if arrivals != expected:
            out.fail(f"client {client} request {index}: arrivals differ "
                     "from the in-process reference")

    if ctx.traced:
        def moved(section: str, name: str) -> float:
            return sum(after[section].get(name, 0)
                       - before[section].get(name, 0)
                       for before, after in snapshots)

        completed = moved("service", "service_completed")
        out.ratio("service.coalesce_ratio",
                  moved("service", "service_coalesced_requests"), completed)
        hits = moved("pool", "hits")
        out.ratio("service.pool.hit_rate", hits,
                  hits + moved("pool", "misses"))
        out.count("service.rejected", sum(moved("service", name) for name in (
            "service_rejected_queue_full", "service_timeouts")), exact=False)
        for metric, counter in (("models.model_evals", "model_evals"),
                                ("timing.stage_visits", "stage_visits")):
            out.count(metric, moved("perf", counter) / completed
                      if completed else 0.0, exact=False)
        _serve_replay(ctx, netlist, warm, streams, ops)
        traced = [t1 - t0 for (_, _, t0, t1, on) in ops if on]
        untraced = [t1 - t0 for (_, _, t0, t1, on) in ops if not on]
        overhead(ctx, traced, untraced)
    return out


class _ServeLoop:
    """Closed loop with one blocking caller per thread, run in chunks
    between other work like :class:`_SweepLoop`."""

    def __init__(self, ctx: Context, netlist: str, streams: List[List]):
        self.ctx = ctx
        #: the client of the daemon now serving; set by the workload
        self.client: ServiceClient = None
        self.netlist = netlist
        self.streams = streams
        self.samples = {c: set(sample_indices(ctx, f"serve{c}", COUNT_OPS[
            ctx.workload])) for c in range(SERVE_CLIENTS)}
        self.next_index = [0] * SERVE_CLIENTS
        self.ops: List[Tuple[int, int, float, float, bool]] = []
        self.checked: Dict[Tuple[int, int], Dict] = {}
        self.failures: List[str] = []
        self.lock = threading.Lock()
        self.chunks: List[Chunk] = []

    def run(self, seconds: float, finish: bool = False) -> None:
        """Requests for *seconds*; with *finish*, also until each client
        has sent the leading requests the counts are taken over, and
        enough for the tail rung."""
        workload = self.ctx.workload
        needed = max(COUNT_OPS[workload], math.ceil(
            min_ops(workload) / SERVE_CLIENTS)) if finish else 0
        self.ctx.clock.run_chunks(lambda chunk_s: self._chunk(
            chunk_s, needed), seconds)

    def _chunk(self, seconds: float, needed: int) -> None:
        first = len(self.ops)
        start = wall()
        deadline = start + seconds
        threads = [threading.Thread(target=self._caller,
                                    args=(c, deadline, needed), daemon=True)
                   for c in range(SERVE_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 120.0)
            if thread.is_alive():
                raise RuntimeError("a client thread did not finish")
        self.chunks.append((start, wall(), [
            (t0, t1) for (_, _, t0, t1, _) in self.ops[first:]]))

    def _caller(self, client_id: int, deadline: float, needed: int) -> None:
        spans = self.ctx.spans
        stream = self.streams[client_id]
        index = self.next_index[client_id]
        while wall() < deadline or index < needed:
            inputs = stream[index % len(stream)]
            trace_this = self.ctx.traced and index % 2 == 1
            op_id = client_id * 1_000_000 + index
            t0 = wall()
            root = spans.begin("op", op=op_id, track=f"client{client_id}") \
                if trace_this else -1
            try:
                reply = self.client.analyze(
                    self.netlist, [(f"c{client_id}.{index}", inputs)])
            except ServiceError as exc:
                with self.lock:
                    self.failures.append(
                        f"client {client_id} request {index}: {exc} "
                        f"(status {exc.status})")
                reply = None
            if trace_this:
                spans.end(root)
            t1 = wall()
            with self.lock:
                self.ops.append((client_id, index, t0, t1, trace_this))
                if reply is not None and index in self.samples[client_id]:
                    self.checked[(client_id, index)] = reply[0].arrivals
            index += 1
        self.next_index[client_id] = index


def _payload(netlist: str, label: str, inputs) -> bytes:
    """The request body :meth:`ServiceClient.analyze` sends."""
    return json.dumps({
        "netlist": netlist, "tech": "cmos3", "model": "slope",
        "kernel": "numpy", "slope_quantum": 0.0, "characterize": True,
        "vectors": [{"label": label, "inputs": encode_inputs(inputs)}],
    }).encode("utf-8")


def _serve_replay(ctx: Context, netlist: str, warm, streams: List[List],
                  ops) -> None:
    """Replay requests in-process through the daemon's public functions,
    one layer per span: every traced request, and the leading requests
    of every client, whose fixed order (client 0, client 1, client 0, …)
    makes their counts exact."""
    spans = ctx.spans
    count_ops = COUNT_OPS[ctx.workload]
    roots = {(s.op // 1_000_000, s.op % 1_000_000): s.sid
             for s in spans.op_roots()}
    last = max(index for (_, index, _, _, _) in ops)
    pool = AnalyzerPool()
    # Warm like the daemon's set-up request did.
    warm_request = parse_analyze_request(json.loads(_payload(
        netlist, "warm", warm)))
    pool.get(warm_request).analyzer.analyze_delta(
        warm_request.vectors[0].inputs)
    totals: Dict[str, int] = {}
    replays = 0
    for index in range(last + 1):
        for client in range(SERVE_CLIENTS):
            root = roots.get((client, index), -1)
            if index >= count_ops and root < 0:
                continue
            kw = dict(parent=root, op=spans.spans[root].op if root >= 0
                      else -1, track="replay")
            label = f"c{client}.{index}"
            body = _payload(netlist, label, streams[client][index])

            def decode():
                return parse_analyze_request(json.loads(body.decode("utf-8")))

            request = spans.timed("service.protocol.decode", decode, **kw)
            entry = spans.timed("service.pool.get", pool.get, request, **kw)
            vectors = list(request.vectors)
            permutation = spans.timed("batch.order", order_vectors, vectors,
                                      "greedy", **kw)
            results = [spans.timed("timing.analyze_delta",
                                   entry.analyzer.analyze_delta,
                                   vectors[i].inputs, **kw)
                       for i in permutation]

            def encode():
                return json.dumps({"results": [
                    encode_result(vectors[i].label, r)
                    for i, r in zip(permutation, results)],
                    "coalesced": 0, "pool_key": entry.key[:12]}
                ).encode("utf-8")

            raw = spans.timed("service.protocol.encode", encode, **kw)

            def client_decode():
                return [decode_arrivals(e)
                        for e in json.loads(raw.decode("utf-8"))["results"]]

            spans.timed("service.client.decode", client_decode, **kw)
            if index >= count_ops:
                continue
            for result in results:
                for name, value in result.perf.counters.items():
                    totals[name] = totals.get(name, 0) + value
            replays += 1
    delta_counts(ctx, totals, replays)
    out = ctx.outcome
    for layer in ("service.protocol.decode", "service.pool.get",
                  "batch.order", "timing.analyze_delta",
                  "service.protocol.encode", "service.client.decode"):
        out.put(layer + "_ms", spans.median_ms(layer), "ms")
    selfs = spans.self_times()
    out.put("service.roundtrip_ms", median_of(
        [1e3 * spans.spans[sid].duration for sid in roots.values()]), "ms")
    out.put("service.transport_ms", median_of(
        [1e3 * selfs[sid] for sid in roots.values()]), "ms")


WORKLOADS = {
    "cli-timing-datapath": run_cli,
    "sweep-rca32-full": run_sweep_full,
    "sweep-rca32-delta": run_sweep_delta,
    "serve-rca32": run_serve,
}
