"""Tiny-size self-test of the benchmark harness.

    python3 bench/selftest.py

Runs every workload at 40 images per domain, untraced and traced, and
fails (exit code 1) unless:

* the driver-facing line has exactly the keys correct, attempted, failed
  and metrics, with every metric of BENCHMARK.json under its unit;
* the record carries every user-facing end-to-end figure with its unit;
* the exact counts come out as integers with the values the model
  structure implies (trunk passes per step and per predict, distance
  matrices per MMD, tape records per step);
* a second run on the same seed reproduces the loss trajectory exactly;
* in a directory holding only BENCHMARK.json and bench/, run.py exits
  with a non-zero code and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

# exact counts the model structure implies: 2 trunk passes per branch and
# step, 1 per branch and predict, 4 distance matrices per MMD
EXPECTED = {
    "train_multi3": {"model.trunk_passes_per_step": 6, "model.trunk_passes_per_predict": 3,
                     "losses.pairwise_sq_dists.calls_per_mmd": 4},
    "train_single": {"model.trunk_passes_per_step": 2, "model.trunk_passes_per_predict": 1,
                     "losses.pairwise_sq_dists.calls_per_mmd": 4},
    "infer_multi3": {"model.trunk_passes_per_step": 0, "model.trunk_passes_per_predict": 3,
                     "losses.pairwise_sq_dists.calls_per_mmd": 0},
}


class SelfTestError(AssertionError):
    pass


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SelfTestError(what)


def _check_result(line: str, spec: list, label: str) -> None:
    result = json.loads(line)
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {set(result)}")
    check(result["correct"] is True, f"{label}: not correct")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{label}: attempted")
    check(result["failed"] == 0, f"{label}: {result['failed']} failed")
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    check(got == want, f"{label}: metrics {got} != {want}")
    for k, m in result["metrics"].items():
        check(isinstance(m["value"], (int, float)), f"{label}: {k} is not a number")


def _check_workloads(harness, bench: dict) -> None:
    for name, wl in harness.WORKLOADS.items():
        plain = harness.run(name, 3, 0.0, False, harness.TINY)
        _check_result(harness.result_line(plain), bench["end_to_end"], f"{name} trace 0")
        reported = {k: m["unit"] for k, m in plain["reported"].items()}
        check(reported == harness.REPORTED[wl.kind], f"{name}: reported {reported}")
        check(plain["reported"]["error_rate"]["value"] == 0, f"{name}: error_rate")

        traced = harness.run(name, 3, 0.0, True, harness.TINY)
        _check_result(harness.result_line(traced), bench["per_layer"], f"{name} trace 1")
        layer = {k: m["value"] for k, m in traced["metrics"].items()}
        for metric, value in EXPECTED[name].items():
            check(type(layer[metric]) is int and layer[metric] == value,
                  f"{name}: {metric} = {layer[metric]!r}, expected {value}")
        tape = layer["autodiff.tape_records_per_step"]
        check(type(tape) is int and (tape > 0) == (wl.kind == "train"),
              f"{name}: tape records per step {tape!r}")
        check(traced["equivalence"]["digest"] == plain["equivalence"]["digest"],
              f"{name}: the same seed gave a different trajectory")
        check(plain["equivalence"]["repeat_identical"], f"{name}: cycles disagree")
        spans = (run.ROOT / traced["spans_file"]).read_text(encoding="ascii").splitlines()
        check(len(spans) > 0 and {"id", "name", "start", "end", "parent", "phase"}
              == set(json.loads(spans[0])), f"{name}: spans file")
        print(f"selftest: {name} ok")


def _check_no_sources(harness) -> None:
    harness.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=harness.OUT_DIR) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "bench", Path(bare) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "train_single", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120, check=False)
    check(proc.returncode != 0, "run.py succeeded without sources")
    check('"correct"' not in proc.stdout, "run.py printed a result without sources")
    print("selftest: bare directory refused")


def main() -> int:
    problem = run.prepare()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    import harness

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        _check_workloads(harness, bench)
        _check_no_sources(harness)
    except SelfTestError as exc:
        print(f"selftest FAILED: {exc}", file=sys.stderr)
        return 1
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
