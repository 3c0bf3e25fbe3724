"""Reference figures for the benchmark's README; none of them is a metric.

    python3 perfbench/reference.py [--seconds 30] [--repeats 5]

Prints, as Markdown: the cold-call wall time of two CLI invocations (median
of --repeats fresh processes), loghopf ops_per_s at jet orders 3, 4 and 6,
the src/ line count per module, and one traced run's per-layer table for
every workload.  Run it from the repository root on an otherwise idle
machine; it takes a few minutes.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
ENV = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

CLI_CALLS = (
    ["loghopf", "--r", "3", "--Z", "S(1,0)", "--j", "0", "--l", "0"],
    ["compare", "--r", "3", "--mode", "strip", "--X", "S(1,0)", "--j", "1", "--k", "0"],
)


def bench(workload, seconds, trace=0, jet_order=6, seed=1):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--jet-order", str(jet_order)],
        cwd=ROOT, env=ENV, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def cold_calls(repeats):
    print("| CLI call | cold wall time, median of %d (s) |" % repeats)
    print("| --- | --- |")
    for argv in CLI_CALLS:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-m", "unrolled_sl2.cli", *argv], cwd=ROOT, env=ENV,
                           capture_output=True, check=True)
            times.append(time.perf_counter() - t0)
        print(f"| `unrolled-sl2 {' '.join(argv)}` | {statistics.median(times):.3f} |")


def jet_orders(seconds):
    print("\n| jet order | loghopf ops_per_s | op_ms_p50 | failed |")
    print("| --- | --- | --- | --- |")
    for order in (3, 4, 6):
        res = bench("loghopf", seconds, jet_order=order)
        m = res["metrics"]
        print(f"| {order} | {m['ops_per_s']['value']:.2f} | {m['op_ms_p50']['value']:.1f} "
              f"| {res['failed']} of {res['attempted']} |")


def line_counts():
    print("\n| module | lines |")
    print("| --- | --- |")
    total = 0
    for path in sorted(glob.glob(os.path.join(SRC, "unrolled_sl2", "*.py"))):
        with open(path) as f:
            n = sum(1 for _ in f)
        total += n
        print(f"| `{os.path.basename(path)}` | {n} |")
    print(f"| total | {total} |")


def per_layer(seconds):
    names = ("loghopf", "braid_words", "singlet_compare")
    runs = {w: bench(w, seconds, trace=1)["metrics"] for w in names}
    print("\n| metric | unit | " + " | ".join(names) + " |")
    print("| --- | --- | " + " | ".join("---" for _ in names) + " |")
    for key, first in runs[names[0]].items():
        vals = []
        for w in names:
            v = runs[w][key]["value"]
            vals.append(f"{v:.3f}" if first["unit"] == "ratio" else f"{v:.1f}")
        print(f"| `{key}` | {first['unit']} | " + " | ".join(vals) + " |")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    cold_calls(args.repeats)
    jet_orders(args.seconds)
    line_counts()
    per_layer(args.seconds)


if __name__ == "__main__":
    main()
