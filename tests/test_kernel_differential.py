"""Differential tests for the O(N) PRH kernel and tree templates.

The scalar O(N^2) reference (:func:`repro.rctree.time_constants`) is the
ground truth; the O(N) list kernel must reproduce it to float accuracy
on every tree shape and size, and the analyzer's ``kernel="numpy"``
(template) path must produce the same
arrivals as ``kernel="python"`` end to end — including when the
structural-sharing layer (:mod:`repro.core.timing.stage_iso`)
instantiates templates for isomorphic stages by name substitution.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import adder_input_names, ripple_carry_adder
from repro.core.models import characterize_technology
from repro.core.timing import TimingAnalyzer
from repro.errors import AnalysisError
from repro.rctree import RCTree, TimeConstants, TreeTemplate, time_constants
from repro.tech import CMOS3

RTOL = 1e-9


def assert_constants_close(got: TimeConstants, want: TimeConstants) -> None:
    for name in ("t_p", "t_d", "t_r"):
        a, b = getattr(got, name), getattr(want, name)
        assert math.isclose(a, b, rel_tol=RTOL, abs_tol=1e-30), (
            f"{name}: kernel {a!r} != scalar {b!r}")


def check_tree(tree: RCTree) -> None:
    """Template (O(N) kernel) constants == the O(N^2) scalar reference."""
    template = TreeTemplate.from_rctree(tree)
    for node in tree.nodes:
        assert_constants_close(template.constants_for(node),
                               time_constants(tree, node))


def random_tree(draw_edges) -> RCTree:
    tree = RCTree("src")
    nodes = ["src"]
    for i, (parent_index, r, c) in enumerate(draw_edges):
        parent = nodes[parent_index % len(nodes)]
        name = f"n{i}"
        tree.add_edge(parent, name, r)
        tree.add_cap(name, c)
        nodes.append(name)
    return tree


def edges(min_size: int, max_size: int):
    return st.lists(
        st.tuples(st.integers(0, 1000),
                  st.floats(min_value=10.0, max_value=1e5),
                  st.floats(min_value=1e-15, max_value=1e-11)),
        min_size=min_size, max_size=max_size)


class TestKernelVsScalar:
    @settings(max_examples=60, deadline=None)
    @given(edges=edges(1, 60))
    def test_random_trees(self, edges):
        check_tree(random_tree(edges))

    @settings(max_examples=15, deadline=None)
    @given(edges=edges(48, 96))
    def test_random_large_trees(self, edges):
        # Far beyond any shipped stage tree (a handful of nodes).
        check_tree(random_tree(edges))

    def test_single_node(self):
        tree = RCTree("out")
        tree.add_cap("out", 3e-12)
        template = TreeTemplate.from_rctree(tree)
        k = template.constants_for("out")
        assert k.t_d == 0.0 and k.t_r == 0.0 and k.t_p == 0.0
        assert template.total_cap() == pytest.approx(3e-12)

    def test_deep_chain(self):
        check_tree(RCTree.chain([1e3] * 96, [1e-13] * 96))

    def test_star(self):
        tree = RCTree("hub")
        for i in range(96):
            tree.add_edge("hub", f"leaf{i}", 500.0 + i)
            tree.add_cap(f"leaf{i}", 1e-13 * (i + 1))
        check_tree(tree)

    def test_path_resistance_matches_tree(self):
        tree = random_tree([(0, 100.0, 1e-12), (1, 200.0, 2e-12),
                            (1, 300.0, 1e-12), (0, 400.0, 5e-13)])
        template = TreeTemplate.from_rctree(tree)
        for node in tree.non_root_nodes:
            assert template.path_resistance(node) == pytest.approx(
                tree.path_resistance(node), rel=RTOL)


class TestTemplateTranslation:
    def test_translated_shares_bitwise_constants(self):
        tree = RCTree.chain([1e3, 2e3], [1e-12, 2e-12])
        template = TreeTemplate.from_rctree(tree)
        twin = TreeTemplate.translated(
            template, {n: n + "_b" for n in template.names}, {})
        assert twin.names == tuple(n + "_b" for n in template.names)
        # Exactly the same constants object: zero recomputation, and the
        # shared values are bit-identical by construction.
        assert twin.constants() is template.constants()
        assert twin.parent is template.parent
        assert twin.r is not template.r  # restamp safety


class TestAnalyzerDifferential:
    @pytest.fixture(scope="class")
    def rca8(self):
        tech = characterize_technology(CMOS3)
        network = ripple_carry_adder(tech, 8)
        inputs = {name: 0.0 for name in adder_input_names(8)}
        return network, inputs

    def test_rca8_numpy_matches_python(self, rca8):
        network, inputs = rca8
        results = {kern: TimingAnalyzer(network, kernel=kern).analyze(inputs)
                   for kern in ("numpy", "python")}
        numpy_arrivals = results["numpy"].arrivals
        python_arrivals = results["python"].arrivals
        assert set(numpy_arrivals) == set(python_arrivals)
        for node, arrival in numpy_arrivals.items():
            reference = python_arrivals[node]
            assert math.isclose(arrival.time, reference.time,
                                rel_tol=RTOL, abs_tol=1e-15), node
            assert math.isclose(arrival.slope, reference.slope,
                                rel_tol=RTOL, abs_tol=1e-15), node

    def test_numpy_path_builds_no_dict_trees(self, rca8):
        network, inputs = rca8
        analyzer = TimingAnalyzer(network, kernel="numpy")
        result = analyzer.analyze(inputs)
        counters = result.perf.counters
        assert counters.get("tree_builds", 0) == 0
        assert counters["tree_template_misses"] > 0
        assert counters["kernel_batches"] > 0
        assert counters["kernel_nodes"] >= counters["kernel_batches"]

    def test_structural_sharing_counts(self, rca8):
        """Isomorphic full-adder stages enumerate/compile once and
        instantiate everywhere else."""
        network, inputs = rca8
        analyzer = TimingAnalyzer(network, kernel="numpy")
        result = analyzer.analyze(inputs)
        counters = result.perf.counters
        assert counters["path_translations"] > counters["path_enumerations"]
        assert counters["tree_template_shared"] > 0
        assert (counters["tree_template_misses"]
                < counters["tree_template_shared"])

    def test_invalidate_caches_drops_templates(self, rca8):
        network, inputs = rca8
        analyzer = TimingAnalyzer(network, kernel="numpy")
        analyzer.analyze(inputs)
        assert analyzer._templates
        analyzer.invalidate_caches()
        assert not analyzer._templates
        # And a re-run after invalidation still agrees with itself.
        again = analyzer.analyze(inputs)
        assert again.arrivals


class TestTimeConstantsSlack:
    def test_accepts_rounding_at_td_scale(self):
        # T_R a hair above T_D (within 1e-9 relative) must not raise:
        # the O(N) kernel's reassociated sums can land there.
        t_d = 1e-6
        TimeConstants(t_p=2e-6, t_d=t_d, t_r=t_d * (1 + 1e-10))

    def test_rejects_genuine_violation(self):
        with pytest.raises(AnalysisError):
            TimeConstants(t_p=1e-6, t_d=1e-6, t_r=2e-6)
