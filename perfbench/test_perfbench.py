#!/usr/bin/env python3
"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

1. The oracle self-test: corrupted results of every kind are counted as
   failed, real ones are not.
2. Exact-count determinism: two traced runs of one seed report the same
   per-op counts (words, messages, barriers, spans, spread bytes) on every
   workload.
3. Seeding: another seed changes the input hashes; the same seed keeps
   them.
4. The environment guard: a timed run refuses OMP_NUM_THREADS and prints
   no result.
5. The metric sets: every workload's untraced run prints exactly the
   end-to-end metrics of BENCHMARK.json and its traced run exactly the
   per-layer ones, in their units, with no layer reported absent.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
MANIFEST = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
WORKLOADS = ["frame_cc", "frame_hist", "serve_mix"]
EXACT_COUNTS = ["splitc.barriers_per_op", "bdm.words_per_op",
                "bdm.messages_per_op", "image.spread_bytes_per_op",
                "trace.spans_per_op"]
SHORT_SECONDS = "2"


def run(args, env=None):
    return subprocess.run([sys.executable, RUN] + args, capture_output=True,
                          text=True, env=env, check=False)


def bench(workload, seed, trace):
    out = run(["--workload", workload, "--seed", str(seed), "--seconds",
               SHORT_SECONDS, "--trace", str(trace)])
    if out.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} exited "
                             f"{out.returncode}:\n{out.stderr[-3000:]}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    hashes = [l for l in lines if l.startswith("# inputs_hash")]
    absent = [l for l in lines if l.startswith("# absent")]
    return result, hashes, absent


def check(condition, message):
    if not condition:
        raise AssertionError(message)
    print(f"ok   {message}")


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def main():
    with open(MANIFEST, encoding="utf-8") as f:
        manifest = json.load(f)
    wanted = {key: {m["name"]: m["unit"] for m in manifest[key]}
              for key in ("end_to_end", "per_layer")}

    out = run(["--self-test"])
    check(out.returncode == 0 and "# self-test passed" in out.stdout,
          "self-test counts every corrupted result as failed")

    for workload in WORKLOADS:
        first, hashes_a, absent = bench(workload, 1, 1)
        second, hashes_b, _ = bench(workload, 1, 1)
        check(first["correct"] and first["failed"] == 0,
              f"{workload}: traced run is correct")
        check(units(first) == wanted["per_layer"] and not absent,
              f"{workload}: traced run prints every per-layer metric"
              + (f" (absent: {absent})" if absent else ""))
        present = [m for m in EXACT_COUNTS if m in first["metrics"]]
        check(len(present) >= 3, f"{workload}: reports exact counts {present}")
        for name in present:
            a = first["metrics"][name]["value"]
            b = second["metrics"].get(name, {}).get("value")
            check(a == b, f"{workload}: {name} repeats exactly ({a} vs {b})")
        check(hashes_a == hashes_b, f"{workload}: same seed, same input hash")
        untraced, hashes_c, _ = bench(workload, 2, 0)
        check(units(untraced) == wanted["end_to_end"],
              f"{workload}: untraced run prints every end-to-end metric")
        # A traced run prints the named workload's hash first, then the
        # side passes' hashes.
        check(hashes_a[0] != hashes_c[0],
              f"{workload}: another seed changes the input hash")

    env = dict(os.environ, OMP_NUM_THREADS="1")
    out = run(["--workload", "frame_hist", "--seed", "1", "--seconds", "1",
               "--trace", "0"], env=env)
    check(out.returncode != 0 and '"correct"' not in out.stdout,
          "a timed run refuses OMP_NUM_THREADS")
    print("all perfbench tests passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print(f"FAIL {e}")
        sys.exit(1)
