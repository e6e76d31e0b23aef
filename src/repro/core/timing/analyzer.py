"""The static timing analyzer (the Crystal of the reproduction).

Incremental event-driven worst-case arrival propagation over the stage
graph:

1. every primary input contributes an initial event (rise and/or fall at a
   user-given time and slope);
2. whenever a node's arrival for some transition improves (gets *later*),
   the changed event is queued against every stage it triggers, on a
   priority worklist keyed by the arrival time — stages are therefore
   visited roughly in topological/temporal order, which makes most visits
   final on feed-forward logic;
3. a stage visit is **demand-driven**: a per-stage index maps each trigger
   event to the exact (target node, transition, path, trigger) delay
   candidates it can affect, so only the candidates whose upstream event
   actually changed are re-evaluated (the first visit evaluates the stage
   exhaustively to seed the index);
4. delay-model answers are memoized on
   ``(stage, target, transition, path, trigger kind, quantized slope)`` —
   an upstream arrival whose *time* improved but whose *slope* did not
   re-uses the cached stage delay outright;
5. the process reaches a fixpoint because arrivals only ever increase; an
   iteration cap catches genuine timing loops.

The result records, for every (node, transition), the arrival time, the
propagated slope, and the causal link used — enough to reconstruct the
critical path stage by stage (:mod:`repro.core.timing.report`) — plus the
run's :class:`~repro.perf.PerfCounters` (stage visits, model evaluations,
cache hits, worklist traffic).

Ties are broken deterministically: when two candidates arrive within the
relative epsilon of each other, the one with the smaller canonical rank
(path enumeration order, then trigger order) wins, regardless of the order
in which the engine happened to discover them.  This makes the incremental
engine's output bit-identical to a brute-force full re-evaluation
(``incremental=False``), which the regression tests assert.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

from ...errors import TimingError
from ...netlist import Network
from ...netlist.stages import Stage
from ...perf import PerfCounters
from ...rctree import RCTree, TreeTemplate
from ...switchlevel import Logic
from ...tech import Transition
from ...trace.spans import (
    NULL_SCOPE,
    current as _trace_current,
    instant as _trace_instant,
    span as _trace_span,
)
from ..models import DelayModel, SlopeModel, StageDelay
from .paths import (
    SensitizedPath,
    StageCaches,
    StateMap,
    Trigger,
    build_tree,
    compile_template,
    enumerate_paths,
)
from ..models.base import StageRequest
from .stage_graph import StageGraph
from .stage_iso import (
    build_maps,
    element_map,
    stage_signature,
    translate_paths,
)

#: Arrivals closer than this (relative to the largest magnitude seen) are
#: considered equal — stops slope jitter from causing endless revisits.
_RELATIVE_EPSILON = 1e-9

#: Deterministic iteration order of transitions (enum declaration order).
_TRANSITIONS: Tuple[Transition, ...] = tuple(Transition)
_TRANSITION_ORDER: Dict[Transition, int] = {
    t: i for i, t in enumerate(_TRANSITIONS)
}

#: Canonical rank of a primary-input arrival: beats any computed candidate
#: of equal time (a stage never displaces the user's own input timing).
_PRIMARY_RANK: Tuple[int, int] = (-1, -1)


@dataclass(frozen=True)
class Event:
    """A (node, transition) pair — the unit timing is attached to."""

    node: str
    transition: Transition

    def __post_init__(self) -> None:
        # Events key the arrival dicts on every hot engine operation;
        # computing the hash once here avoids re-running the enum's
        # Python-level __hash__ on every lookup.
        object.__setattr__(self, "_hash",
                           hash((self.node, self.transition)))

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self):
        # String hashes are salted per process: drop the cached hash so
        # an Event unpickled in another process recomputes it locally.
        return (self.node, self.transition)

    def __setstate__(self, state) -> None:
        object.__setattr__(self, "node", state[0])
        object.__setattr__(self, "transition", state[1])
        object.__setattr__(self, "_hash", hash((state[0], state[1])))

    def __str__(self) -> str:
        arrow = "↑" if self.transition is Transition.RISE else "↓"
        return f"{self.node}{arrow}"


@dataclass(frozen=True)
class InputSpec:
    """Timing of a primary input.

    ``None`` for an arrival disables that edge (e.g. a clock held low).
    ``slope`` is the full-swing transition time of the input's edges.
    """

    arrival_rise: Optional[float] = 0.0
    arrival_fall: Optional[float] = 0.0
    slope: float = 0.0

    def arrival(self, transition: Transition) -> Optional[float]:
        return (self.arrival_rise if transition is Transition.RISE
                else self.arrival_fall)


@dataclass
class Arrival:
    """Worst-case arrival of one event, with its causal link."""

    time: float
    slope: float
    cause: Optional[Event] = None
    stage_delay: Optional[StageDelay] = None
    path: Optional[SensitizedPath] = None
    trigger: Optional[Trigger] = None

    @property
    def is_primary(self) -> bool:
        return self.cause is None


@dataclass
class TimingResult:
    """Complete analysis output."""

    network: Network
    model_name: str
    arrivals: Dict[Event, Arrival]
    #: per-run observability: stage visits, model evals, cache hits, …
    perf: Optional[PerfCounters] = None

    def arrival(self, node: str, transition: Transition) -> Arrival:
        from ...errors import NetlistError
        try:
            name = self.network.node(node).name
        except NetlistError as exc:
            raise TimingError(str(exc)) from exc
        event = Event(name, transition)
        try:
            return self.arrivals[event]
        except KeyError:
            raise TimingError(
                f"no arrival computed for {event} (unreachable from the "
                "driven inputs?)"
            ) from None

    def has_arrival(self, node: str, transition: Transition) -> bool:
        return Event(self.network.node(node).name, transition) in self.arrivals

    def worst(self, nodes: Optional[List[str]] = None) -> Tuple[Event, Arrival]:
        """The latest event over *nodes* (default: every computed event)."""
        candidates = self.arrivals.items()
        if nodes is not None:
            wanted = {self.network.node(n).name for n in nodes}
            candidates = [(e, a) for e, a in candidates if e.node in wanted]
            if not candidates:
                raise TimingError("no arrivals for the requested nodes")
        if not self.arrivals:
            raise TimingError("analysis produced no arrivals")
        return max(candidates, key=lambda item: item[1].time)

    def critical_path(self, node: str,
                      transition: Transition) -> List[Tuple[Event, Arrival]]:
        """The causal chain ending at (node, transition), input first."""
        chain: List[Tuple[Event, Arrival]] = []
        event = Event(self.network.node(node).name, transition)
        guard = 0
        while True:
            arrival = self.arrivals.get(event)
            if arrival is None:
                raise TimingError(f"no arrival for {event}")
            chain.append((event, arrival))
            if arrival.cause is None:
                break
            event = arrival.cause
            guard += 1
            if guard > len(self.arrivals) + 1:
                raise TimingError("cycle in critical-path back-pointers")
        chain.reverse()
        return chain


class _IndexEntry:
    """One delay candidate a trigger event can affect, in a fixed stage.

    ``order`` is the path's position in the stage's path enumeration and
    ``trigger_pos`` the trigger's position within the path — together the
    candidate's canonical tie-break rank.
    """

    __slots__ = ("node", "transition", "order", "trigger_pos", "path",
                 "trigger")

    def __init__(self, node: str, transition: Transition, order: int,
                 trigger_pos: int, path: SensitizedPath, trigger: Trigger):
        self.node = node
        self.transition = transition
        self.order = order
        self.trigger_pos = trigger_pos
        self.path = path
        self.trigger = trigger


def normalize_inputs(network: Network,
                     inputs: Mapping[str, Union[InputSpec, float]]
                     ) -> Dict[str, InputSpec]:
    """Check an input-timing map against *network* and canonicalize it:
    every name must be a non-supply node, every primary input must be
    timed, and bare floats become both-edge :class:`InputSpec` s.  Cheap
    enough to run before any expensive set-up, so bad input fails fast."""
    normalized: Dict[str, InputSpec] = {}
    for name, spec in inputs.items():
        node = network.node(name)
        if node.is_supply:
            raise TimingError(f"cannot time a supply rail {name!r}")
        if not isinstance(spec, InputSpec):
            spec = InputSpec(arrival_rise=float(spec),
                             arrival_fall=float(spec))
        normalized[node.name] = spec
    missing = [n.name for n in network.inputs() if n.name not in normalized]
    if missing:
        raise TimingError(
            "primary inputs without timing: " + ", ".join(sorted(missing))
        )
    return normalized


class TimingAnalyzer:
    """Configure once, analyze many input scenarios.

    Parameters
    ----------
    network:
        The circuit.
    model:
        Delay model (default: the slope model, the paper's recommendation).
    states:
        Optional node → :class:`~repro.switchlevel.Logic` map of the
        settled state *after* the analyzed input event, used for path
        sensitization and event pruning (usually from a
        :class:`~repro.switchlevel.SwitchSimulator`).  ``None`` analyzes
        pessimistically, treating every unknown as possible.
    initial_states:
        Optional map of the state *before* the event.  When both maps are
        given, nodes whose value provably does not change produce no
        events — the single-vector transition pruning Crystal performed
        with simulator-supplied node values.
    incremental:
        ``True`` (default) enables demand-driven stage re-evaluation:
        after a stage's first exhaustive visit, only the delay candidates
        whose upstream trigger actually changed are recomputed.  ``False``
        re-evaluates every internal node × transition of a stage on every
        visit — the brute-force reference the regression tests compare
        against.  Both modes share the worklist, the memo cache, and the
        deterministic tie-break, so their outputs are identical.
    slope_quantum:
        Relative quantization applied to input slopes before they key the
        delay-model memo cache (``0.05`` = snap to a 5 % geometric grid).
        The *quantized* slope is also what the model is evaluated with, so
        results stay deterministic regardless of evaluation order.  The
        default ``0.0`` disables quantization — every distinct slope gets
        its own cache line and results are exact.
    kernel:
        ``"numpy"`` (default) compiles each distinct (stage, path, order)
        tree into a reusable :class:`~repro.rctree.TreeTemplate` and
        answers delay-model questions through the O(N) RPH kernel — all
        of a stage's time constants come out of one array pass, and
        repeat candidates are template cache hits instead of dict-tree
        rebuilds.  ``"python"`` keeps the original per-node scalar
        recurrences on dict-based :class:`~repro.rctree.RCTree` objects —
        the differential reference.  Both kernels agree to 1e-9 relative
        (``tests/test_kernel_differential.py``).

    Caching and invalidation
    ------------------------
    Path enumerations, RC trees, compiled tree templates, the per-stage
    trigger index, and the delay-model memo are all keyed on state that is
    fixed at construction time (network topology, ``states``, the model,
    the technology), so they live for the analyzer's lifetime and are
    shared across ``analyze()`` calls — a second run of the same scenario
    is almost entirely cache hits.  If the network, technology tables, or
    model are mutated in place, call :meth:`invalidate_caches`.
    """

    #: Re-evaluations of one stage before declaring a timing loop.  Deep
    #: reconvergent circuits legitimately revisit stages as upstream
    #: arrivals improve, so this is generous; genuine loops grow without
    #: bound and still trip it.
    MAX_STAGE_VISITS = 400

    def __init__(self, network: Network, model: Optional[DelayModel] = None,
                 states: Optional[StateMap] = None,
                 initial_states: Optional[StateMap] = None,
                 incremental: bool = True,
                 slope_quantum: float = 0.0,
                 kernel: str = "numpy"):
        self.network = network
        self.model = model if model is not None else SlopeModel()
        self.states = states
        self.initial_states = initial_states
        self.incremental = incremental
        if slope_quantum < 0:
            raise TimingError(f"negative slope quantum {slope_quantum!r}")
        self.slope_quantum = float(slope_quantum)
        if kernel not in ("numpy", "python"):
            raise TimingError(
                f"unknown kernel {kernel!r} (expected 'numpy' or 'python')")
        self.kernel = kernel
        #: cumulative counters over every ``analyze()`` of this instance
        self.perf = PerfCounters()
        self._run_perf: Optional[PerfCounters] = None
        with self.perf.timer("stage_graph_build"):
            self.graph = StageGraph.build(network)
        # Per-(stage, node, transition) path cache and per-path tree cache.
        self._paths: Dict[Tuple[int, str, Transition],
                          List[SensitizedPath]] = {}
        self._trees: Dict[Tuple[int, str, Transition, int], RCTree] = {}
        # Compiled tree templates, same key as the dict-tree cache; which
        # one a kernel fills is an either/or (``self.kernel``).
        self._templates: Dict[Tuple[int, str, Transition, int],
                              TreeTemplate] = {}
        # Per-stage derived-structure caches (adjacencies, pair index,
        # reachability, merged edge resistances) shared by every path
        # enumeration and tree/template build of the stage.
        self._stage_caches: Dict[int, StageCaches] = {}
        # Structural sharing (repro.core.timing.stage_iso): one
        # representative stage per canonical signature does the real
        # enumeration/compilation; isomorphic stages instantiate its
        # results through a name substitution.  _stage_iso maps
        # stage.index -> (representative stage, name_map, inverse map,
        # element map); the maps are None on the representative itself.
        self._stage_iso: Dict[int, Tuple[Stage, Optional[Dict[str, str]],
                                         Optional[Dict[str, str]],
                                         Optional[Dict]]] = {}
        self._sig_reps: Dict[Tuple, Tuple[Stage, Tuple[str, ...]]] = {}
        # Network-wide node capacitance memo shared across stages.
        self._node_caps: Dict[str, float] = {}
        # Delay-model memo: (stage, node, transition, path order,
        # trigger kind, quantized slope) -> StageDelay.
        self._delay_cache: Dict[Tuple, StageDelay] = {}
        # Per-stage reverse index: trigger event -> candidates it affects.
        self._trigger_index: Dict[int, Dict[Event, List[_IndexEntry]]] = {}
        # Delta carryover: the last completed run's (normalized inputs,
        # arrivals, ranks).  analyze_delta() re-uses every arrival whose
        # stage lies outside the changed inputs' dirty cone.  The stored
        # dicts alias the returned TimingResult's — treat results as
        # immutable (mutating result.arrivals corrupts the next delta).
        self._carryover: Optional[Tuple[Dict[str, InputSpec],
                                        Dict[Event, Arrival],
                                        Dict[Event, Tuple[int, int]]]] = None

    # ------------------------------------------------------------------

    def invalidate_caches(self) -> None:
        """Drop every derived cache (paths, RC trees, trigger indexes,
        memoized stage delays) and rebuild the stage graph.  Call after
        mutating the network (device geometry, added loads, added
        devices), the technology tables, or the model in place — a stale
        analyzer silently reuses delays computed for the old circuit."""
        self._paths.clear()
        self._trees.clear()
        self._templates.clear()
        self._stage_caches.clear()
        self._stage_iso.clear()
        self._sig_reps.clear()
        self._node_caps.clear()
        self._delay_cache.clear()
        self._trigger_index.clear()
        self._carryover = None
        with self.perf.timer("stage_graph_build"):
            self.graph = StageGraph.build(self.network)

    def clear_carryover(self) -> None:
        """Forget the last run's arrivals: the next :meth:`analyze_delta`
        cold-starts.  Cheaper than :meth:`invalidate_caches` — the path/
        template/memo caches survive (they are input-independent)."""
        self._carryover = None

    def reset_run_state(self) -> None:
        """Clear per-run state without touching analyzer-lifetime caches.

        ``analyze()`` resets its own run state on every exit (including
        exceptions), so this is only needed to recover an instance whose
        run state was corrupted externally; it never drops the path/RC/
        memo caches that make warm re-analysis cheap.
        """
        self._run_perf = None

    def _count(self, name: str, amount: int = 1) -> None:
        perf = self._run_perf if self._run_perf is not None else self.perf
        perf.incr(name, amount)

    # ------------------------------------------------------------------

    def analyze(self, inputs: Mapping[str, Union[InputSpec, float]]
                ) -> TimingResult:
        """Propagate arrivals from the given primary-input timing.

        *inputs* maps input node names to :class:`InputSpec` (or a bare
        number, shorthand for "both edges at that time, step slope").
        Every primary input of the network must be covered.
        """
        if self._run_perf is not None:
            raise TimingError(
                "analyze() re-entered: a TimingAnalyzer runs one scenario "
                "at a time (use reset_run_state() to recover an instance "
                "whose previous run was corrupted)"
            )
        perf = PerfCounters()
        self._run_perf = perf
        try:
            # The span shares the run's lifecycle with the perf counters:
            # opened with them, closed (balanced) in this same scope even
            # when the propagation raises.
            with perf.timer("analyze"), \
                    _trace_span("analyze", inputs=len(inputs)) as scope:
                arrivals, ranks, normalized = self._propagate(inputs, perf)
                scope.set(stage_visits=perf.get("stage_visits"),
                          model_evals=perf.get("model_evals"))
        except BaseException:
            # A raised propagation must not leave carryover pointing at a
            # run the caller never saw complete: drop it so the next
            # analyze_delta() provably cold-starts instead of deltaing
            # against state whose provenance is now ambiguous
            # (tests/test_carryover_failure.py locks this down).
            self._carryover = None
            raise
        finally:
            self._run_perf = None
            self.perf.merge(perf)
        self._carryover = (normalized, arrivals, ranks)
        return TimingResult(network=self.network,
                            model_name=self.model.name, arrivals=arrivals,
                            perf=perf)

    def analyze_delta(self, inputs: Mapping[str, Union[InputSpec, float]]
                      ) -> TimingResult:
        """Analyze *inputs* by re-using the previous run's arrivals.

        The input Hamming delta against the last analyzed vector picks
        out the changed primary inputs; every stage outside their dirty
        cone (:meth:`StageGraph.dirty_cone`) provably sees identical
        triggers, so its committed arrivals are carried over verbatim.
        Cone stages have their arrivals dropped and are re-evaluated
        exhaustively in level order — within the cone this *is* a cold
        run, so the result is bit-identical to :meth:`analyze` (the
        delta differential tests lock that equivalence).

        Falls back to a full :meth:`analyze` when there is no carryover
        (first run, after :meth:`clear_carryover` /
        :meth:`invalidate_caches`, or after a run that raised — a failed
        propagation invalidates carryover so the next delta run is
        bit-identical to a cold analysis).  Counters: ``delta_scenarios``,
        ``input_delta``, ``cone_stages``, ``stages_skipped``,
        ``arrivals_reused``.
        """
        if self._carryover is None:
            return self.analyze(inputs)
        if self._run_perf is not None:
            raise TimingError(
                "analyze_delta() re-entered: a TimingAnalyzer runs one "
                "scenario at a time (use reset_run_state() to recover an "
                "instance whose previous run was corrupted)"
            )
        perf = PerfCounters()
        self._run_perf = perf
        try:
            with perf.timer("analyze"), \
                    _trace_span("analyze_delta",
                                inputs=len(inputs)) as scope:
                arrivals, ranks, normalized = self._propagate_delta(inputs,
                                                                    perf)
                scope.set(changed_inputs=perf.get("input_delta"),
                          cone_stages=perf.get("cone_stages"),
                          stages_skipped=perf.get("stages_skipped"))
        except BaseException:
            # Same failure contract as analyze(): _propagate_delta mutates
            # only private copies of the carried-over dicts, so the stale
            # tuple *would* still be consistent — but consistency of the
            # previous fixpoint is an invariant worth enforcing, not
            # assuming.  Invalidate, so the next delta run cold-starts and
            # is trivially bit-identical to a fresh analyze().
            self._carryover = None
            raise
        finally:
            self._run_perf = None
            self.perf.merge(perf)
        self._carryover = (normalized, arrivals, ranks)
        return TimingResult(network=self.network,
                            model_name=self.model.name, arrivals=arrivals,
                            perf=perf)

    def _propagate_delta(self, inputs: Mapping[str, Union[InputSpec, float]],
                         perf: PerfCounters
                         ) -> Tuple[Dict[Event, Arrival],
                                    Dict[Event, Tuple[int, int]],
                                    Dict[str, InputSpec]]:
        prev_inputs, prev_arrivals, prev_ranks = self._carryover
        normalized = normalize_inputs(self.network, inputs)
        changed = sorted(name for name in normalized
                         if prev_inputs.get(name) != normalized[name])
        perf.incr("delta_scenarios")
        perf.incr("input_delta", len(changed))
        total_stages = len(self.graph.stages)
        if not changed:
            # Identical vector: the previous fixpoint is the answer.
            perf.incr("stages_skipped", total_stages)
            perf.incr("arrivals_reused", len(prev_arrivals))
            return dict(prev_arrivals), dict(prev_ranks), normalized

        cone = self.graph.dirty_cone(changed)
        perf.incr("cone_stages", len(cone))
        perf.incr("stages_skipped", total_stages - len(cone))

        arrivals = dict(prev_arrivals)
        ranks = dict(prev_ranks)
        stages = self.graph.stages
        # Drop everything the cone will recompute: every internal event
        # of a cone stage, and the changed primary inputs' own events.
        for index in cone:
            for node in stages[index].internal_nodes:
                for transition in _TRANSITIONS:
                    event = Event(node, transition)
                    if arrivals.pop(event, None) is not None:
                        ranks.pop(event, None)
        for name in changed:
            for transition in _TRANSITIONS:
                event = Event(name, transition)
                arrivals.pop(event, None)
                ranks.pop(event, None)
        perf.incr("arrivals_reused", len(arrivals))

        # Re-seed the changed primary inputs from their new specs.
        seeds: List[Tuple[Event, float]] = []
        for name in changed:
            spec = normalized[name]
            for transition in _TRANSITIONS:
                time = spec.arrival(transition)
                if time is None:
                    continue
                event = Event(name, transition)
                arrivals[event] = Arrival(time=time, slope=spec.slope)
                ranks[event] = _PRIMARY_RANK
                seeds.append((event, time))
        self._run_worklist(arrivals, ranks, perf, seeds, forced=cone)
        return arrivals, ranks, normalized

    def analyze_many(self,
                     scenarios: Iterable[Mapping[str, Union[InputSpec,
                                                            float]]],
                     delta: bool = False) -> List[TimingResult]:
        """Analyze a batch of input scenarios against this one analyzer.

        Every scenario runs with the same analyzer-lifetime caches (path
        enumerations, RC trees, trigger indexes, the delay-model memo), so
        after the first scenario pays the setup cost the marginal model
        evaluations per scenario approach zero — the sweep amortization
        the ROADMAP's multi-scenario batching item asks for (DESIGN.md
        §5b).  Per-run state is reset between scenarios; each returned
        :class:`TimingResult` carries its own perf snapshot, and the
        cumulative :attr:`perf` picks up per-batch totals plus a
        ``batch_scenarios`` count and an ``analyze_batch`` timer.

        Results are bit-identical to running each scenario through a
        fresh analyzer (the differential tests and
        ``benchmarks/bench_batch_sweep.py`` assert this).

        ``delta=True`` routes every scenario through
        :meth:`analyze_delta`: consecutive vectors reuse each other's
        committed arrivals outside the changed inputs' dirty cone, on
        top of the cache amortization — the fewer inputs change between
        neighbours, the fewer stages are visited (see
        ``benchmarks/bench_delta_sweep.py``).  Equally bit-identical.
        """
        results: List[TimingResult] = []
        with self.perf.timer("analyze_batch"):
            for position, inputs in enumerate(scenarios):
                with _trace_span("scenario", index=position):
                    results.append(self.analyze_delta(inputs) if delta
                                   else self.analyze(inputs))
        self.perf.incr("batch_scenarios", len(results))
        return results

    def _propagate(self, inputs: Mapping[str, Union[InputSpec, float]],
                   perf: PerfCounters
                   ) -> Tuple[Dict[Event, Arrival],
                              Dict[Event, Tuple[int, int]],
                              Dict[str, InputSpec]]:
        arrivals: Dict[Event, Arrival] = {}
        ranks: Dict[Event, Tuple[int, int]] = {}
        normalized = normalize_inputs(self.network, inputs)
        seeds: List[Tuple[Event, float]] = []
        for name, spec in normalized.items():
            for transition in _TRANSITIONS:
                time = spec.arrival(transition)
                if time is None:
                    continue
                event = Event(name, transition)
                arrivals[event] = Arrival(time=time, slope=spec.slope)
                ranks[event] = _PRIMARY_RANK
                seeds.append((event, time))
        self._run_worklist(arrivals, ranks, perf, seeds)
        return arrivals, ranks, normalized

    def _run_worklist(self, arrivals: Dict[Event, Arrival],
                      ranks: Dict[Event, Tuple[int, int]],
                      perf: PerfCounters,
                      seeds: Iterable[Tuple[Event, float]],
                      forced: Iterable[int] = ()) -> None:
        """Drive the priority worklist to its fixpoint.

        *seeds* are (event, time) activations scheduled against the
        stages they trigger; *forced* stage indices (the delta path's
        dirty cone) are additionally guaranteed one exhaustive evaluation
        even if no seed reaches them — a cone stage whose triggers all
        kept their carried-over arrivals still needs its (deleted)
        internal arrivals recomputed.
        """
        stages = self.graph.stages
        levels = self.graph.levels()
        pending: Dict[int, Set[Event]] = {}
        scheduled: Dict[int, Tuple[int, float]] = {}
        heap: List[Tuple[int, float, int]] = []
        evaluated: Set[int] = set()

        # Priority: topological level first (a stage pops only after every
        # acyclic predecessor has settled — single-visit convergence on
        # feed-forward logic), earliest pending arrival time as tie-break
        # within a level.
        def schedule(event: Event, time: float) -> None:
            for stage in self.graph.affected_stages(event.node):
                index = stage.index
                pending.setdefault(index, set()).add(event)
                priority = (levels[index], time)
                best = scheduled.get(index)
                if best is None or priority < best:
                    scheduled[index] = priority
                    heapq.heappush(heap, (priority[0], priority[1], index))
                    perf.incr("worklist_pushes")

        for event, time in seeds:
            schedule(event, time)

        # Forced stages sort after natural activity within their level
        # (time = +inf) — by the time one pops, its level's upstream
        # traffic has been drained, so the exhaustive visit is usually
        # final, exactly like a cold run's first visit.
        force_pending: Set[int] = set()
        for index in sorted(set(forced)):
            force_pending.add(index)
            priority = (levels[index], math.inf)
            best = scheduled.get(index)
            if best is None or priority < best:
                scheduled[index] = priority
                heapq.heappush(heap, (priority[0], priority[1], index))
                perf.incr("worklist_pushes")

        visits: Dict[int, int] = {}
        tracer = _trace_current()
        while heap:
            level, time, index = heapq.heappop(heap)
            if scheduled.get(index) == (level, time):
                del scheduled[index]
            events = pending.pop(index, None)
            if not events:
                if index not in force_pending or index in evaluated:
                    # Nothing pending and no outstanding forced visit
                    # (or the forced visit already happened naturally).
                    force_pending.discard(index)
                    perf.incr("worklist_stale_pops")
                    continue
            force_pending.discard(index)
            stage = stages[index]
            visits[index] = visits.get(index, 0) + 1
            if visits[index] > self.MAX_STAGE_VISITS:
                nodes = ", ".join(sorted(stage.internal_nodes))
                raise TimingError(f"timing loop through stage [{nodes}]")
            perf.incr("stage_visits")
            incremental_visit = bool(self.incremental and index in evaluated
                                     and events)
            scope = (tracer.span("stage_eval", stage=index, level=level,
                                 mode=("incremental" if incremental_visit
                                       else "full"))
                     if tracer is not None else NULL_SCOPE)
            with scope:
                if incremental_visit:
                    perf.incr("stage_incremental_evals")
                    changed = self._evaluate_incremental(stage, events,
                                                         arrivals, ranks)
                else:
                    evaluated.add(index)
                    perf.incr("stage_full_evals")
                    changed = self._evaluate_full(stage, arrivals, ranks)
            for event in changed:
                schedule(event, arrivals[event].time)

    # ------------------------------------------------------------------

    # -- static caches --------------------------------------------------

    def _rep_for(self, stage: Stage) -> Tuple[Stage, Optional[Dict[str, str]],
                                              Optional[Dict[str, str]],
                                              Optional[Dict]]:
        """The stage's structural-sharing record: its representative
        stage plus the name/element substitutions (None when the stage
        *is* the representative of its signature)."""
        entry = self._stage_iso.get(stage.index)
        if entry is None:
            signature, names = stage_signature(
                self.network, stage, self.states, cap_cache=self._node_caps)
            rep = self._sig_reps.get(signature)
            if rep is None:
                self._sig_reps[signature] = (stage, names)
                entry = (stage, None, None, None)
            else:
                rep_stage, rep_names = rep
                name_map, inverse = build_maps(rep_names, names)
                entry = (rep_stage, name_map, inverse,
                         element_map(rep_stage, stage))
            self._stage_iso[stage.index] = entry
        return entry

    def _stage_paths(self, stage: Stage, node: str,
                     transition: Transition) -> List[SensitizedPath]:
        key = (stage.index, node, transition)
        paths = self._paths.get(key)
        if paths is None:
            rep, name_map, inverse, elements = self._rep_for(stage)
            if name_map is None:
                self._count("path_enumerations")
                with _trace_span("path_enum", stage=stage.index, node=node):
                    paths = enumerate_paths(
                        self.network, stage, node, transition, self.states,
                        caches=self._caches_for(stage))
            else:
                rep_paths = self._stage_paths(rep, inverse[node], transition)
                paths = translate_paths(rep_paths, name_map, elements,
                                        stage.index)
                self._count("path_translations")
            self._paths[key] = paths
        return paths

    def _caches_for(self, stage: Stage) -> StageCaches:
        caches = self._stage_caches.get(stage.index)
        if caches is None:
            caches = self._stage_caches[stage.index] = StageCaches()
        return caches

    def _tree_for(self, stage: Stage, path: SensitizedPath,
                  order: int) -> RCTree:
        key = (stage.index, path.target, path.transition, order)
        tree = self._trees.get(key)
        if tree is None:
            self._count("tree_builds")
            tree = build_tree(self.network, stage, path, states=self.states,
                              caches=self._caches_for(stage),
                              cap_cache=self._node_caps)
            self._trees[key] = tree
        return tree

    def _template_for(self, stage: Stage, path: SensitizedPath,
                      order: int) -> TreeTemplate:
        key = (stage.index, path.target, path.transition, order)
        template = self._templates.get(key)
        if template is not None:
            self._count("tree_template_hits")
            _trace_instant("template_hit", stage=stage.index,
                           target=path.target)
            return template
        rep, name_map, inverse, elements = self._rep_for(stage)
        if name_map is None:
            self._count("tree_template_misses")
            with _trace_span("template_compile", stage=stage.index,
                             target=path.target):
                template = compile_template(
                    self.network, stage, path, states=self.states,
                    caches=self._caches_for(stage),
                    cap_cache=self._node_caps)
        else:
            with _trace_span("template_share", stage=stage.index,
                             rep=rep.index):
                rep_paths = self._stage_paths(rep, inverse[path.target],
                                              path.transition)
                template = TreeTemplate.translated(
                    self._template_for(rep, rep_paths[order], order),
                    name_map, elements)
            self._count("tree_template_shared")
        self._templates[key] = template
        return template

    def _trigger_index_for(self, stage: Stage
                           ) -> Dict[Event, List[_IndexEntry]]:
        index = self._trigger_index.get(stage.index)
        if index is None:
            index = {}
            for node in sorted(stage.internal_nodes):
                for transition in _TRANSITIONS:
                    if not self._event_allowed(node, transition):
                        continue
                    paths = self._stage_paths(stage, node, transition)
                    for order, path in enumerate(paths):
                        for pos, trigger in enumerate(path.triggers):
                            event = Event(trigger.input_node,
                                          trigger.input_transition)
                            index.setdefault(event, []).append(_IndexEntry(
                                node, transition, order, pos, path, trigger))
            self._trigger_index[stage.index] = index
        return index

    # -- memoized delay evaluation --------------------------------------

    def _quantize_slope(self, slope: float) -> float:
        if self.slope_quantum <= 0.0 or slope <= 0.0:
            return slope
        step = math.log1p(self.slope_quantum)
        return math.exp(round(math.log(slope) / step) * step)

    def _request_for(self, stage: Stage, path: SensitizedPath, order: int,
                     trigger: Trigger, slope: float) -> StageRequest:
        """The delay-model question for one memo miss, carrying either a
        compiled template (numpy kernel) or a dict tree (python kernel)."""
        if self.kernel == "numpy":
            return StageRequest(
                tree=None,
                target=path.target,
                transition=path.transition,
                trigger_kind=trigger.device_kind,
                input_slope=slope,
                tech=self.network.tech,
                template=self._template_for(stage, path, order),
            )
        return StageRequest(
            tree=self._tree_for(stage, path, order),
            target=path.target,
            transition=path.transition,
            trigger_kind=trigger.device_kind,
            input_slope=slope,
            tech=self.network.tech,
        )

    def _best_candidate(self, stage: Stage,
                        group: List[Tuple[int, int, SensitizedPath, Trigger]],
                        arrivals: Mapping[Event, Arrival]
                        ) -> Tuple[Optional[Arrival], Tuple[int, int]]:
        """Resolve a target's (order, trigger_pos, path, trigger)
        candidate group and pick the winner under the deterministic
        tie-break.

        The group's memo misses are gathered and handed to the model in
        one :meth:`DelayModel.evaluate_many` batch — with the numpy kernel
        they all share the stage's template-level time constants, so the
        per-candidate marginal cost is a dict lookup.  Only the winning
        candidate is materialized as an :class:`Arrival`; the losers never
        leave (time, rank) form.
        """
        cache = self._delay_cache
        stage_index = stage.index
        quantum = self.slope_quantum
        plan: List[Tuple[Event, Arrival, Tuple, int, int, SensitizedPath,
                         Trigger]] = []
        pending_keys: List[Tuple] = []
        pending_requests: List[StageRequest] = []
        pending_seen: Set[Tuple] = set()
        hits = 0
        for order, pos, path, trigger in group:
            event = Event(trigger.input_node, trigger.input_transition)
            upstream = arrivals.get(event)
            if upstream is None:
                continue
            slope = upstream.slope
            if slope < 0.0:
                slope = 0.0
            if quantum > 0.0:
                slope = self._quantize_slope(slope)
            key = (stage_index, path.target, path.transition_code, order,
                   trigger.kind_code, slope)
            if key in cache or key in pending_seen:
                hits += 1
            else:
                pending_seen.add(key)
                pending_keys.append(key)
                pending_requests.append(
                    self._request_for(stage, path, order, trigger, slope))
            plan.append((event, upstream, key, order, pos, path, trigger))
        if plan:
            self._count("candidates", len(plan))
        if hits:
            self._count("model_cache_hits", hits)
        if pending_requests:
            self._count("model_cache_misses", len(pending_requests))
            self._count("model_evals", len(pending_requests))
            if self.kernel == "numpy":
                self._count("kernel_batches")
                self._count("kernel_nodes",
                            sum(len(r.template) for r in pending_requests))
            with _trace_span("kernel_batch", stage=stage_index,
                             requests=len(pending_requests),
                             kernel=self.kernel):
                results = self.model.evaluate_many(pending_requests)
            for key, result in zip(pending_keys, results):
                cache[key] = result

        # Winner selection on raw (time, rank), same ordering as _beats.
        best = None  # (event, upstream, result, path, trigger)
        best_time = 0.0
        best_rank = _PRIMARY_RANK
        for event, upstream, key, order, pos, path, trigger in plan:
            result = cache[key]
            time = upstream.time + result.delay
            if best is not None:
                scale = max(abs(time), abs(best_time), 1e-30)
                margin = _RELATIVE_EPSILON * scale
                if time <= best_time + margin and (
                        time < best_time - margin
                        or (order, pos) >= best_rank):
                    continue
            best = (event, upstream, result, path, trigger)
            best_time = time
            best_rank = (order, pos)
        if best is None:
            return None, _PRIMARY_RANK
        event, upstream, result, path, trigger = best
        return Arrival(
            time=best_time,
            slope=result.output_slope,
            cause=event,
            stage_delay=result,
            path=path,
            trigger=trigger,
        ), best_rank

    # -- event admission ------------------------------------------------

    def _event_allowed(self, node: str, transition: Transition) -> bool:
        """Can (node, transition) occur at all under the supplied states?

        An event ending at level ``v`` requires the post-transition state
        to be ``v`` (or unknown); with both state maps, a node whose known
        value is unchanged produces no event in a single-vector analysis.
        """
        if self.states is None:
            return True
        post = self.states.get(node, Logic.X)
        final = Logic.ONE if transition is Transition.RISE else Logic.ZERO
        if post is not Logic.X and post is not final:
            return False
        if self.initial_states is not None:
            pre = self.initial_states.get(node, Logic.X)
            if pre is not Logic.X and pre is post:
                return False
        return True

    # -- candidate comparison -------------------------------------------

    @staticmethod
    def _beats(candidate: Arrival, candidate_rank: Tuple[int, int],
               current: Arrival, current_rank: Tuple[int, int]) -> bool:
        """Does *candidate* displace *current*?

        Strictly later (beyond the relative epsilon) always wins; within
        the epsilon the smaller canonical rank wins, which makes the
        fixpoint independent of evaluation order.
        """
        scale = max(abs(candidate.time), abs(current.time), 1e-30)
        margin = _RELATIVE_EPSILON * scale
        if candidate.time > current.time + margin:
            return True
        if candidate.time < current.time - margin:
            return False
        return candidate_rank < current_rank

    # -- stage evaluation -----------------------------------------------

    def _commit(self, event: Event, best: Arrival, rank: Tuple[int, int],
                arrivals: Dict[Event, Arrival],
                ranks: Dict[Event, Tuple[int, int]]) -> bool:
        current = arrivals.get(event)
        if current is not None and not self._beats(
                best, rank, current, ranks.get(event, _PRIMARY_RANK)):
            return False
        arrivals[event] = best
        ranks[event] = rank
        self._count("arrival_updates")
        return True

    @staticmethod
    def _full_group(paths: List[SensitizedPath]
                    ) -> List[Tuple[int, int, SensitizedPath, Trigger]]:
        """Every (path, trigger) candidate of a target, canonical order."""
        return [(order, pos, path, trigger)
                for order, path in enumerate(paths)
                for pos, trigger in enumerate(path.triggers)]

    def _evaluate_full(self, stage: Stage, arrivals: Dict[Event, Arrival],
                       ranks: Dict[Event, Tuple[int, int]]) -> List[Event]:
        """Recompute every internal-node arrival; return changed events.

        Targets are evaluated (and committed) one at a time, in canonical
        order, because a feedback stage's own internal node can be an
        upstream trigger of a later target in the same visit — batching
        stays within one target's candidate group.
        """
        changed: List[Event] = []
        for node in sorted(stage.internal_nodes):
            for transition in _TRANSITIONS:
                if not self._event_allowed(node, transition):
                    continue
                paths = self._stage_paths(stage, node, transition)
                best, best_rank = self._best_candidate(
                    stage, self._full_group(paths), arrivals)
                if best is None:
                    continue
                event = Event(node, transition)
                if self._commit(event, best, best_rank, arrivals, ranks):
                    changed.append(event)
        return changed

    def _evaluate_incremental(self, stage: Stage, events: Set[Event],
                              arrivals: Dict[Event, Arrival],
                              ranks: Dict[Event, Tuple[int, int]]
                              ) -> List[Event]:
        """Re-evaluate only the candidates fed by *events*."""
        index = self._trigger_index_for(stage)
        by_target: Dict[Event, List[_IndexEntry]] = {}
        for event in sorted(events, key=lambda e: (
                e.node, _TRANSITION_ORDER[e.transition])):
            for entry in index.get(event, ()):
                target = Event(entry.node, entry.transition)
                by_target.setdefault(target, []).append(entry)

        changed: List[Event] = []
        for target in sorted(by_target, key=lambda e: (
                e.node, _TRANSITION_ORDER[e.transition])):
            entries = sorted(by_target[target],
                             key=lambda e: (e.order, e.trigger_pos))
            group = [(entry.order, entry.trigger_pos, entry.path,
                      entry.trigger) for entry in entries]
            best, best_rank = self._best_candidate(stage, group, arrivals)
            if best is None:
                continue
            if self._commit(target, best, best_rank, arrivals, ranks):
                changed.append(target)
        return changed


def analyze(network: Network, inputs: Mapping[str, Union[InputSpec, float]],
            model: Optional[DelayModel] = None,
            states: Optional[StateMap] = None,
            initial_states: Optional[StateMap] = None) -> TimingResult:
    """One-shot convenience wrapper around :class:`TimingAnalyzer`."""
    analyzer = TimingAnalyzer(network, model=model, states=states,
                              initial_states=initial_states)
    return analyzer.analyze(inputs)
