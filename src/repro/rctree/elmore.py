"""Elmore delay and the RPH time constants of an RC tree.

For a step at the root and a measurement node ``i``:

* ``T_P  = sum_k R_kk * C_k``             (sum over all nodes k)
* ``T_Di = sum_k R_ki * C_k``             (the Elmore delay of node i)
* ``T_Ri = sum_k R_ki^2 * C_k / R_ii``

with ``R_kk`` the root→k path resistance and ``R_ki`` the resistance shared
between the root→k and root→i paths.  Always ``T_Ri <= T_Di <= T_P``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import AnalysisError
from .tree import RCTree


@dataclass(frozen=True)
class TimeConstants:
    """The three RPH time constants for one measurement node."""

    t_p: float
    t_d: float
    t_r: float

    def __post_init__(self) -> None:
        # Allow tiny numerical slack in the defining inequalities.  The
        # slack scales with T_D as well as T_P: the binding comparison
        # T_R <= T_D happens at T_D's magnitude, and the O(N)
        # kernel's reassociated sums can land a large-fanout tree within
        # rounding of that boundary even when T_P alone would suggest a
        # tighter tolerance.
        slack = 1e-12 + 1e-9 * (abs(self.t_p) + abs(self.t_d))
        if not (self.t_r <= self.t_d + slack and self.t_d <= self.t_p + slack):
            raise AnalysisError(
                f"inconsistent time constants: T_R={self.t_r}, "
                f"T_D={self.t_d}, T_P={self.t_p}"
            )


def elmore_delay(tree: RCTree, node: str) -> float:
    """``T_Di`` — the Elmore delay from the root to *node*."""
    total = 0.0
    for k in tree.non_root_nodes:
        shared = tree.shared_resistance(node, k)
        total += shared * tree.cap(k)
    # The root's own capacitance is driven by an ideal source: no delay.
    return total


def time_constants(tree: RCTree, node: str) -> TimeConstants:
    """All three RPH time constants for *node*."""
    if not tree.contains(node):
        raise AnalysisError(f"unknown node {node!r}")
    if node == tree.root:
        return TimeConstants(t_p=_t_p(tree), t_d=0.0, t_r=0.0)
    r_ii = tree.path_resistance(node)
    if r_ii <= 0:
        raise AnalysisError(f"node {node!r} has zero path resistance")
    t_p = _t_p(tree)
    t_d = 0.0
    t_r = 0.0
    for k in tree.non_root_nodes:
        shared = tree.shared_resistance(node, k)
        cap = tree.cap(k)
        t_d += shared * cap
        t_r += shared * shared * cap / r_ii
    return TimeConstants(t_p=t_p, t_d=t_d, t_r=t_r)


def _t_p(tree: RCTree) -> float:
    return sum(tree.path_resistance(k) * tree.cap(k)
               for k in tree.non_root_nodes)


def lumped_time_constant(tree: RCTree, node: str) -> float:
    """The lumped-RC estimate for comparison: R_ii times *all* capacitance
    in the tree — what the lumped model charges through the full path."""
    return tree.path_resistance(node) * tree.total_cap()
