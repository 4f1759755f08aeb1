"""Run one msdalab benchmark workload, or every workload in turn.

    python3 bench/run.py --workload train_multi3 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1     # each workload, untraced then traced

Workloads: train_multi3, train_single, infer_multi3 (see bench/harness.py).
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``. Above it the run prints its
figures under their user-facing names. The full record (those figures,
the loss trajectory for equivalence checks, provenance) is written to
``.bench_out/<workload>-seed<seed>-trace<t>.json``, and a traced run's
spans to ``.bench_out/<workload>-seed<seed>-spans.jsonl``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the run exits with code 2 before measuring anything.

BLAS runs on one thread. On a 2-vCPU machine shared with other tenants,
a second OpenBLAS thread made the train_multi3 p90 step time spread by 16%
between runs (2% on one thread) and saved only about 4% of the time.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"


def prepare() -> str | None:
    """Make ``import harness`` work: find the sources, pin BLAS threads.

    Returns an error message when the checkout holds no msdalab sources.
    Must run before numpy is imported, which reads the thread settings once.
    """
    if not (SRC / "msdalab" / "__init__.py").is_file():
        return f"no msdalab sources under {SRC}; run from a full checkout"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return None


def _print_record(record: dict, path: Path) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"cycles {record['cycles']}  latency samples {record['latency_samples']}")
    figures = record["metrics"] if record["trace"] else record["reported"]
    for name, m in figures.items():
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
    eq = record["equivalence"]
    print(f"  equivalence digest {eq['digest'][:16]}  repeat_identical {eq['repeat_identical']}")
    if record["error"]:
        print(f"  error: {record['error']}")
    print(f"  record {path.relative_to(ROOT)}")


def _run_all(args) -> int:
    import harness

    status = 0
    for name in harness.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            rc = subprocess.run(cmd, cwd=ROOT, check=False).returncode
            status = status or rc
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = prepare()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    import harness

    if args.workload == "all":
        return _run_all(args)
    if args.workload not in harness.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(harness.WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    record = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = harness.write_record(record)
    _print_record(record, path)
    print(harness.result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
