#!/usr/bin/env python3
"""Fast self-check of the benchmark.  Run from the repository root:

    python3 bench/selfcheck.py

Runs every workload briefly (one epoch per experiment), untraced and traced,
and checks that the result line passes the correctness gate and carries
exactly the metrics BENCHMARK.json names, each with its unit.  It also checks
that a second seed gives a valid run on other inputs, and that the benchmark
fails without printing a result when batchlab's sources are absent.
Takes about a minute.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TIMEOUT_S = 180
QUICK = ["--seconds", "1", "--epochs", "1"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check(ok, message):
    if not ok:
        raise SystemExit(f"selfcheck FAIL: {message}")


def run(workload, seed, trace, cwd=ROOT):
    args = ["--workload", workload, "--seed", str(seed), "--trace", str(trace), *QUICK]
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=TIMEOUT_S)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def final_loss_line(stdout):
    return [line for line in stdout.splitlines() if "final_loss" in line]


def check_result(proc, units, label):
    check(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    res = last_json(proc.stdout)
    check(isinstance(res, dict) and set(res) == RESULT_KEYS, f"{label}: bad result line")
    check(res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1,
          f"{label}: gate did not pass: {res}")
    got = {name: m.get("unit") for name, m in res["metrics"].items()}
    check(got == units, f"{label}: metrics differ from BENCHMARK.json: "
          f"missing {sorted(units.keys() - got.keys())}, extra {sorted(got.keys() - units.keys())}, "
          f"units {[n for n in units.keys() & got.keys() if units[n] != got[n]]}")
    for name, m in res["metrics"].items():
        value = m["value"]
        check(set(m) == {"value", "unit"} and isinstance(value, (int, float))
              and math.isfinite(value), f"{label}: {name} is not a finite number")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    losses = {}
    for w in spec["workloads"]:
        for trace in (0, 1):
            label = f"{w['name']} trace {trace}"
            proc = run(w["name"], 1, trace)
            check_result(proc, units[trace], label)
            if trace == 0:
                losses[w["name"]] = final_loss_line(proc.stdout)
            print(f"ok  {label}")

    name = spec["workloads"][-1]["name"]
    proc = run(name, 2, 0)
    check_result(proc, units[0], f"{name} seed 2")
    check(losses[name] and final_loss_line(proc.stdout) != losses[name],
          f"{name}: seeds 1 and 2 trained on the same inputs")
    print(f"ok  {name} seed 2")

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(spec["workloads"][0]["name"], 1, 0, cwd=bare)
        check(proc.returncode != 0 and last_json(proc.stdout) is None,
              "ran without batchlab's sources")
    print("ok  fails without batchlab's sources")


if __name__ == "__main__":
    main()
