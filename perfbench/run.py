"""rxnpred benchmark: one workload, one process, one closed-loop client.

Usage, from the repository root::

    python3 perfbench/run.py --workload small-serve --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics untraced (only the lists that
``evaluate`` ranks are captured, for the output checks).
``--trace 1`` runs the same work untraced and then traced, checks that both
give the same outputs, and reports per-layer metrics (self time, work counts,
shares of ``predict`` time and the tracing overhead); the spans go to
``perfbench/.work/trace-<workload>-<seed>-<phase>.jsonl``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``workloads.py`` for what each workload stresses and why.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rxnpred").is_dir():
        print(f"error: rxnpred sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # needs rxnpred on the path

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    work = HERE / ".work"
    trace_path = work / f"trace-{w.name}-{args.seed}.jsonl" if args.trace else None
    result = workloads.run_in_tempdir(w, args.seed, args.seconds, bool(args.trace),
                                      work, trace_path)

    print(f"workload {w.name} seed {args.seed} trace {args.trace}")
    for name, (value, unit, n) in result.metrics.items():
        print(f"{name} {value:.6g} {unit} (n={n})")
    for note in result.notes:
        print(note)
    for check, ok in result.checks.items():
        print(f"check {check}: {'ok' if ok else 'FAILED'}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
