"""Trace smoke gate: a traced sweep must produce a valid Chrome trace
with the engine's nested span taxonomy.

``make trace-smoke`` (and CI) runs this module.  It sweeps an 8-bit
ripple-carry adder across 16 Gray-ordered vectors under an installed
tracer, writes the trace to ``benchmarks/output/trace_smoke.json``, and
then checks the properties the observability subsystem promises
(DESIGN.md §7):

* the file validates against the Chrome ``trace_event`` shape;
* spans nest as the engine's taxonomy says: a ``kernel_batch`` span
  lies under a ``stage_eval`` span, which lies under an ``analyze``
  root, all inside the ``sweep`` envelope;
* every (pid, sid) pair is unique (no double-recorded spans).

Exit status 0 on success; a failed property raises and exits nonzero.
"""

from __future__ import annotations

import pathlib
import sys
from typing import Dict, List

from ..batch import CartesianSweep, run_sweep
from ..circuits import adder_input_names, ripple_carry_adder
from ..core.models import characterize_technology
from ..tech import CMOS3
from . import export, spans
from .spans import SpanRecord

OUTPUT_FILE = (pathlib.Path(__file__).resolve().parents[3]
               / "benchmarks" / "output" / "trace_smoke.json")

BITS = 8
#: Axes toggled by the sweep; 4 binary axes -> 16 vectors.
AXES = ("a1", "b3", "a5", "b7")
EARLY = 0.0
LATE = 0.5e-9


def _ancestry(record: SpanRecord,
              by_id: Dict[tuple, SpanRecord]) -> List[str]:
    """Names of *record*'s enclosing spans, innermost first."""
    names = []
    parent = by_id.get((record.pid, record.parent))
    while parent is not None:
        names.append(parent.name)
        parent = by_id.get((parent.pid, parent.parent))
    return names


def run_smoke(output: pathlib.Path = OUTPUT_FILE) -> int:
    tech = characterize_technology(CMOS3)
    network = ripple_carry_adder(tech, BITS)
    base = {name: EARLY for name in adder_input_names(BITS)}
    source = CartesianSweep(base=base,
                            axes={name: [EARLY, LATE] for name in AXES})

    tracer = spans.Tracer()
    with spans.activate(tracer):
        result = run_sweep(network, source, order="gray")
    records = tracer.records

    output.parent.mkdir(parents=True, exist_ok=True)
    export.write_chrome_trace(records, str(output))
    export.validate_trace_file(output)

    ids = [(r.pid, r.sid) for r in records]
    by_id = {(r.pid, r.sid): r for r in records}
    nested = [_ancestry(r, by_id) for r in records
              if r.name == "kernel_batch"]

    def nests(chain: List[str]) -> bool:
        return ("stage_eval" in chain and "analyze" in chain
                and chain.index("stage_eval") < chain.index("analyze")
                and chain[-1] == "sweep")

    checks = [
        (len(result.outcomes) == 2 ** len(AXES),
         f"sweep covered {len(result.outcomes)} vectors"),
        (bool(nested) and all(nests(chain) for chain in nested),
         f"{len(nested)} kernel_batch span(s), each nested "
         "sweep > analyze > stage_eval"),
        (len(ids) == len(set(ids)), "all (pid, sid) pairs unique"),
    ]
    failed = [message for ok, message in checks if not ok]
    for ok, message in checks:
        print(f"  {'ok' if ok else 'FAIL'}  {message}")
    if failed:
        print(f"trace smoke: {len(failed)} check(s) failed", file=sys.stderr)
        return 1

    print(f"trace smoke: {len(records)} spans -> {output}")
    print()
    print(export.format_trace_summary(records))
    return 0


def main() -> int:
    return run_smoke()


if __name__ == "__main__":
    sys.exit(main())
