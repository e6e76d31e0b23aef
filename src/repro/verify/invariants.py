"""Metamorphic invariants on the delay model itself.

Differential mode comparison catches engines disagreeing with each
other; these checks catch the model disagreeing with *physics* — the
orderings Ousterhout's RC formulation provably satisfies, checked on the
generated case (and on standalone random RC trees):

* **capacitance monotonicity** — adding grounded capacitance to any node
  can only delay arrivals.  Provable under :class:`RCTreeModel` (Elmore
  ``T_D`` is monotone in every node cap and the model ignores input
  slope, so worse stage delays can only push the downstream max later);
* **resize direction** — widening a transistor scales its static
  resistance by exactly ``1/factor`` (R ∝ L/W), and widening every
  device of an inverter driving a dominating fixed load must not slow
  the output (the R halving provably beats the diffusion-cap growth);
* **RPH bracketing** — on random RC trees, the Penfield-Rubinstein-
  Horowitz bounds of :mod:`repro.rctree.bounds` must bracket the exact
  eigendecomposition crossing of :mod:`repro.rctree.exact` at every
  threshold, the lower bound must not exceed the Elmore point estimate,
  and both Elmore and the exact crossing must be cap-monotone.

Violations are reported as ``kind="invariant"`` discrepancies so they
flow through the same shrink/emit pipeline as mode mismatches.
"""

from __future__ import annotations

import random
from typing import List

from ..core.models import RCTreeModel
from ..core.timing import TimingAnalyzer
from ..netlist import Network
from ..perf import PerfCounters
from ..rctree import RCTree, delay_bounds, exact_delay
from ..tech import Transition
from .diff import Discrepancy
from .generate import ConformanceCase

__all__ = ["check_invariants", "check_tree_invariants"]

#: Relative slack for "must not decrease/exceed" comparisons — matches
#: the engine-wide tie-break epsilon.
_RTOL = 1e-9
_ABS = 1e-15

_EXTRA_CAP = 25e-15
_WIDEN_FACTOR = 2.0


def _clone(network: Network) -> Network:
    clone = Network(network.tech, name=network.name)
    clone.merge_from(network)
    return clone


def _arrivals(network: Network, inputs) -> dict:
    return TimingAnalyzer(network, model=RCTreeModel()).analyze(
        inputs).arrivals


def _check_cap_monotonicity(case: ConformanceCase, rng: random.Random,
                            perf: PerfCounters) -> List[Discrepancy]:
    """Adding 25 fF to one internal node must not make anything earlier."""
    internal = sorted(
        node.name for node in case.network.signal_nodes
        if node.role.name != "INPUT")
    if not internal or not case.vectors:
        return []
    node = rng.choice(internal)
    loaded_net = _clone(case.network)
    loaded_net.add_node(node, capacitance=_EXTRA_CAP)
    vector = case.vectors[0]
    perf.incr("verify_invariant_checks")
    base = _arrivals(case.network, vector.inputs)
    loaded = _arrivals(loaded_net, vector.inputs)
    findings = []
    for event, arrival in base.items():
        other = loaded.get(event)
        if other is None:
            continue
        if other.time < arrival.time - abs(arrival.time) * _RTOL - _ABS:
            findings.append(Discrepancy(
                case_name=case.name, kind="invariant",
                mode_a="rc-tree", mode_b="rc-tree+cap",
                label=vector.label, event=f"{event.node}:{event.transition.value}",
                detail=(f"added {_EXTRA_CAP * 1e15:.0f}fF at {node!r} made "
                        f"{event.node} arrive earlier: {arrival.time!r} -> "
                        f"{other.time!r}")))
    return findings


def _check_resize_direction(case: ConformanceCase, rng: random.Random,
                            perf: PerfCounters) -> List[Discrepancy]:
    findings: List[Discrepancy] = []
    tech = case.network.tech
    devices = case.network.transistors
    if devices:
        device = rng.choice(devices)
        for transition in Transition:
            if (device.kind, transition) not in tech.static_resistance:
                continue
            perf.incr("verify_invariant_checks")
            base_r = tech.resistance(device.kind, transition,
                                     device.width, device.length)
            wide_r = tech.resistance(device.kind, transition,
                                     device.width * _WIDEN_FACTOR,
                                     device.length)
            if abs(wide_r - base_r / _WIDEN_FACTOR) > base_r * _RTOL:
                findings.append(Discrepancy(
                    case_name=case.name, kind="invariant",
                    mode_a="resize", mode_b="resistance",
                    detail=(f"widening {device.name!r} by {_WIDEN_FACTOR:g} "
                            f"({transition.value}) scaled R {base_r!r} -> "
                            f"{wide_r!r}, expected "
                            f"{base_r / _WIDEN_FACTOR!r}")))

    # End-to-end: an inverter into a dominating fixed load must not get
    # slower when every device is widened (R halves; the diffusion-cap
    # growth is bounded by the load).
    from ..circuits import inverter_chain

    perf.incr("verify_invariant_checks")
    net = inverter_chain(tech, stages=1, load_cap=200e-15)
    inputs = {"in": 0.0}
    before = _arrivals(net, inputs)
    for device in net.transistors:
        net.resize_transistor(device.name,
                              width=device.width * _WIDEN_FACTOR)
    after = _arrivals(net, inputs)
    for event, arrival in before.items():
        if event.node != "out":
            continue
        other = after.get(event)
        if other is None:
            continue
        if other.time > arrival.time + abs(arrival.time) * _RTOL + _ABS:
            findings.append(Discrepancy(
                case_name=case.name, kind="invariant",
                mode_a="resize", mode_b="delay",
                event=f"{event.node}:{event.transition.value}",
                detail=(f"widening the loaded inverter {_WIDEN_FACTOR:g}x "
                        f"slowed {event.node}: {arrival.time!r} -> "
                        f"{other.time!r}")))
    return findings


def _random_tree(rng: random.Random, nodes: int) -> RCTree:
    """A random branchy RC tree on integer R/C grids."""
    tree = RCTree("n0")
    tree.add_cap("n0", rng.randint(1, 20) * 1e-15)
    names = ["n0"]
    for index in range(1, nodes):
        parent = rng.choice(names)
        child = f"n{index}"
        tree.add_edge(parent, child, float(rng.randint(100, 5000)))
        tree.add_cap(child, rng.randint(1, 50) * 1e-15)
        names.append(child)
    return tree


def check_tree_invariants(seed: int, perf: PerfCounters,
                          case_name: str = "tree",
                          trees: int = 2) -> List[Discrepancy]:
    """RPH bracketing + cap monotonicity on standalone random RC trees,
    against the exact eigendecomposition oracle."""
    rng = random.Random(seed * 69_069 + 12_345)
    findings: List[Discrepancy] = []
    for _ in range(trees):
        tree = _random_tree(rng, rng.randint(3, 9))
        targets = rng.sample(tree.nodes[1:], min(2, len(tree.nodes) - 1))
        for node in targets:
            for threshold in (0.35, 0.5, 0.8):
                perf.incr("verify_invariant_checks")
                bounds = delay_bounds(tree, node, threshold)
                exact = exact_delay(tree, node, threshold)
                slack = max(abs(exact), abs(bounds.elmore)) * _RTOL + _ABS
                if not (bounds.lower <= exact + slack
                        and exact <= bounds.upper + slack):
                    findings.append(Discrepancy(
                        case_name=case_name, kind="invariant",
                        mode_a="rph-bounds", mode_b="exact",
                        event=f"{node}@{threshold:g}",
                        detail=(f"bracket violated: lower={bounds.lower!r} "
                                f"exact={exact!r} upper={bounds.upper!r}")))
                # lower <= T_D is only provable for thresholds <= 0.5
                # (there T_R*ln(T_D/(T_P*(1-v))) <= T_R*ln2 < T_D via
                # T_P >= T_D >= T_R); at 0.8 a single-pole tree has
                # lower = T_D*ln5 > T_D, legitimately.
                if threshold <= 0.5 and bounds.lower > bounds.elmore + slack:
                    findings.append(Discrepancy(
                        case_name=case_name, kind="invariant",
                        mode_a="rph-bounds", mode_b="elmore",
                        event=f"{node}@{threshold:g}",
                        detail=(f"lower bound {bounds.lower!r} exceeds "
                                f"Elmore {bounds.elmore!r} at threshold "
                                f"{threshold:g} <= 0.5")))
            # Cap monotonicity of both estimates at the 50% threshold.
            perf.incr("verify_invariant_checks")
            grown = _grow_cap(tree, rng.choice(tree.nodes))
            before_b = delay_bounds(tree, node, 0.5)
            after_b = delay_bounds(grown, node, 0.5)
            before_x = exact_delay(tree, node, 0.5)
            after_x = exact_delay(grown, node, 0.5)
            slack = max(abs(before_x), abs(before_b.elmore)) * _RTOL + _ABS
            if after_b.elmore < before_b.elmore - slack \
                    or after_x < before_x - slack:
                findings.append(Discrepancy(
                    case_name=case_name, kind="invariant",
                    mode_a="cap-monotone", mode_b="tree",
                    event=f"{node}@0.5",
                    detail=(f"added cap made the tree faster: elmore "
                            f"{before_b.elmore!r} -> {after_b.elmore!r}, "
                            f"exact {before_x!r} -> {after_x!r}")))
    return findings


def _grow_cap(tree: RCTree, node: str) -> RCTree:
    """A copy of *tree* with 10 fF added at *node*."""
    clone = RCTree(tree.root)
    for child in tree.nodes:
        if child == tree.root:
            continue
        parent, resistance = tree.parent_edge(child)
        clone.add_edge(parent, child, resistance)
    for name in tree.nodes:
        cap = tree.cap(name)
        if cap:
            clone.add_cap(name, cap)
    clone.add_cap(node, 10e-15)
    return clone


def check_invariants(case: ConformanceCase, seed: int,
                     perf: PerfCounters) -> List[Discrepancy]:
    """All model-level invariant checks for one case."""
    rng = random.Random(seed * 40_503 + 977)
    findings = _check_cap_monotonicity(case, rng, perf)
    findings += _check_resize_direction(case, rng, perf)
    findings += check_tree_invariants(seed, perf, case_name=case.name,
                                      trees=1)
    perf.incr("verify_invariant_failures", len(findings))
    return findings
