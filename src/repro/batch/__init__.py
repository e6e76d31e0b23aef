"""Batch scenario sweeps: many input vectors, one shared analyzer.

The subsystem behind the ``sweep`` CLI subcommand (see DESIGN.md §5b):
vector sources (:mod:`repro.batch.vectors`), the cache-sharing sweep
engine (:mod:`repro.batch.sweep`), and the summary/profile reports
(:mod:`repro.batch.report`).
"""

from .vectors import (
    VECTOR_ORDERS,
    CartesianSweep,
    ExplicitVectors,
    RandomVectors,
    Vector,
    VectorSource,
    dump_vector_file,
    format_timing_token,
    format_vector_line,
    greedy_hamming_order,
    load_vector_file,
    order_vectors,
    pair_deltas,
    parse_timing_token,
    parse_vector_line,
    vector_delta,
)
from .sweep import (OrderStats, ScenarioOutcome, SweepResult, run_scenarios,
                    run_sweep, validate_vectors)
from .report import format_sweep_profile, format_sweep_summary

__all__ = [
    "VECTOR_ORDERS",
    "CartesianSweep",
    "ExplicitVectors",
    "RandomVectors",
    "Vector",
    "VectorSource",
    "dump_vector_file",
    "format_timing_token",
    "format_vector_line",
    "greedy_hamming_order",
    "load_vector_file",
    "order_vectors",
    "pair_deltas",
    "parse_timing_token",
    "parse_vector_line",
    "vector_delta",
    "OrderStats",
    "ScenarioOutcome",
    "SweepResult",
    "validate_vectors",
    "run_scenarios",
    "run_sweep",
    "format_sweep_profile",
    "format_sweep_summary",
]
