"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload loghopf --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ./src.  With
--trace 0 the run does whole rounds of operations for --seconds (at least
100 operations) and reports the end-to-end metrics.  With --trace 1 it
alternates an untraced and a traced round for --seconds and reports the
per-layer metrics of the traced rounds, with the tracing overhead against
the untraced ones.  Every output is checked outside the timed calls; the
last line of stdout is the result as JSON, and a copy with every sample
(and the spans of a traced run) is written under perfbench/out/.

Times are taken at the machine's reference speed: a fixed reference kernel
is timed before and after every operation (and through set-up), and each
wall time is scaled by REF_KERNEL_S over the kernel's time around it.  On a
shared host whose speed swings by up to 1.8x over seconds, this keeps a
slow phase of the machine out of the figures; see perfbench/README.md.
"""

import os
import sys
import time


def _process_age() -> float:
    """Seconds since this process started, from the kernel's record of its start."""
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - int(fields[19]) / os.sysconf("SC_CLK_TCK")
        if 0.0 <= age < 60.0:
            return age
    except (OSError, ValueError, IndexError, AttributeError):
        pass
    return 0.0


T_START = time.perf_counter() - _process_age()

# one thread everywhere, BLAS included: the gates are small dense matrices and
# threads would only add scheduling noise on a shared machine
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import numpy as np  # noqa: E402

MIN_OPS = 100

# The reference kernel: interpreter work and small complex NumPy products,
# the same mix as the jet arithmetic it is set against.  REF_KERNEL_S is its
# time on the benchmark machine (README) when that machine is not slowed.
REF_KERNEL_S = 2.74e-4
_REF_A = np.arange(36, dtype=complex).reshape(6, 6) / 36


def ref_kernel() -> float:
    """Seconds the reference kernel takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2000):
        acc += i * i % 7
    m = _REF_A
    for _ in range(40):
        m = (m @ _REF_A + _REF_A) * 0.5
    table = {}
    for i in range(300):
        table[(i, i % 3)] = complex(i, 1)
    return time.perf_counter() - t0


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jet-order", type=int, default=6,
                    help="jet order of every QContext (reference figures only)")
    return ap.parse_args(argv)


def run_round(ops, tracer=None):
    """Time each op's call; returns [(r, seconds, output or None, error or None, wall)].

    The seconds are at reference speed: the op's wall time times REF_KERNEL_S
    over the reference kernel's time around it (ref_speed).
    """
    out, refs = [], [ref_kernel()]
    for idx, op in enumerate(ops):
        if tracer is not None:
            tracer.op, tracer.r = idx, op.r
            if op.strip:
                tracer.count("singlet.strip_lookups", 2)
        t0 = time.perf_counter()
        try:
            res, err = op.run(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            res, err = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        refs.append(ref_kernel())
        out.append((op.r, wall, res, err))
    return [(r, wall * REF_KERNEL_S / ref_speed(refs, i, wall), res, err, wall)
            for i, (r, wall, res, err) in enumerate(out)]


def ref_speed(refs, i, wall, span=0.004):
    """The reference kernel's time around op i (refs[i] before it, refs[i+1] after).

    An op of a few ms or more takes the mean of the two; a shorter one the
    median of the refs within about `span` seconds of it (at most 8 on either
    side), as one kernel time is too noisy for a sub-millisecond op while the
    machine's speed holds for tens of ms.
    """
    k = min(8, 1 + int(span / max(wall, 1e-4)))
    if k == 1:
        return (refs[i] + refs[i + 1]) / 2
    return statistics.median(refs[max(0, i + 1 - k):i + 1 + k])


def check_round(ops, samples, failures):
    """Check every output of a round outside the timed calls; returns the failed count."""
    failed = 0
    for op, (_, _, res, err, _) in zip(ops, samples):
        if err is None:
            try:
                err = op.check(res)
            except Exception as exc:  # an output that cannot be checked fails
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            failed += 1
            if len(failures) < 20:
                failures.append({"r": op.r, **op.meta, "error": err})
    return failed


def percentile(values, q):
    """Linear-interpolation percentile (numpy's default rule)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def more_rounds(t0, done, seconds, ops_done=MIN_OPS):
    """Whether to start another round: while it should end within `seconds`
    of t0 (judged from the mean round so far), and always until one round
    and MIN_OPS operations are done."""
    if done == 0 or ops_done < MIN_OPS:
        return True
    spent = time.perf_counter() - t0
    return spent + spent / done <= seconds


def end_to_end(workload, seconds, rmax, setup_s):
    """Whole rounds for `seconds` (and at least MIN_OPS operations).

    Every round has the same slots, so each slot's time is taken as its
    median over the rounds, and the percentiles are over slots: a burst of
    load on the machine moves one sample of a slot, not the slot.
    """
    rounds, walls, failures, failed = [], [], [], 0
    t0 = time.perf_counter()
    while more_rounds(t0, len(rounds), seconds, sum(map(len, rounds))):
        ops = workload.round_ops(len(rounds))
        got = run_round(ops)
        failed += check_round(ops, got, failures)
        rounds.append([s[1] for s in got])
        walls.append([s[4] for s in got])
    slot_r = [op.r for op in ops]
    slot_ms = [statistics.median(col) * 1e3 for col in zip(*rounds)]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (sum(map(len, rounds)) / sum(map(sum, rounds)), "ops/s"),
        "op_ms_p50": (statistics.median(slot_ms), "ms"),
        "op_ms_p90": (percentile(slot_ms, 90), "ms"),
        "rmax_op_ms": (statistics.median(ms for r, ms in zip(slot_r, slot_ms) if r == rmax), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {"slot_r": slot_r,
              "round_ms": [[dt * 1e3 for dt in times] for times in rounds],
              "round_wall_ms": [[dt * 1e3 for dt in times] for times in walls]}
    return len(rounds) * len(slot_r), failed, failures, metrics, detail


def traced(workload, seconds, rmax, calibrate_s):
    from tracing import Tracer

    tracer = Tracer()
    base = traced_s = 0.0
    attempted = failed = 0
    failures = []
    k = 0
    t0 = time.perf_counter()
    while more_rounds(t0, k // 2, seconds):
        for on in (False, True):
            ops = workload.round_ops(k)
            if on:
                tracer.install()
            try:
                got = run_round(ops, tracer if on else None)
            finally:
                tracer.uninstall()
            dt = sum(s[1] for s in got)
            if on:
                traced_s += dt
            else:
                base += dt
            attempted += len(got)
            failed += check_round(ops, got, failures)
            k += 1
    rounds = k // 2

    selft = tracer.self_times()
    metrics = {}

    def put(name, by_r, unit, scale=1.0):
        metrics[name] = (sum(by_r.values()) * scale / rounds, unit)
        metrics[name + ".rmax"] = (by_r.get(rmax, 0) * scale / rounds, unit)

    metrics["ribbon.calibrate_ms"] = (sum(calibrate_s.values()) * 1e3, "ms")
    metrics["ribbon.calibrate_ms.rmax"] = (calibrate_s[rmax] * 1e3, "ms")
    for layer, ms_name, calls_name in (
            ("rep.module", "rep.module_ms", "rep.module_calls"),
            ("ribbon.braiding", "ribbon.braiding_ms", "ribbon.braiding_calls"),
            ("ribbon.twist", None, "ribbon.twist_calls"),
            ("ribbon.duality", "ribbon.duality_ms", None),
            ("ribbon.trace", "ribbon.trace_ms", None),
            ("tangle.contract", "tangle.contract_ms", "tangle.eval_calls"),
            ("deform.limit", "deform.limit_ms", "deform.invariant_calls"),
            ("singlet.compare", None, "singlet.compare_calls")):
        by_r = {r: v for (lay, r), v in selft.items() if lay == layer}
        if ms_name:
            put(ms_name, {r: v[0] for r, v in by_r.items()}, "ms", 1e3)
        if calls_name:
            put(calls_name, {r: v[1] for r, v in by_r.items()}, "count")
    for counter in ("jets.product_calls", "jets.inverse_calls", "jets.analytic_calls",
                    "jets.limit_calls"):
        put(counter, {r: v for (c, r), v in tracer.counts.items() if c == counter}, "count")

    lookups = sum(v for (c, _), v in tracer.counts.items() if c == "singlet.strip_lookups")
    evals = sum(1 for s in tracer.spans
                if s[0] == "deform.limit" and s[4] is not None
                and tracer.spans[s[4]][0] == "singlet.compare")
    metrics["singlet.strip_lookups"] = (lookups / rounds, "count")
    metrics["singlet.strip_evals"] = (evals / rounds, "count")
    metrics["singlet.strip_memo_hit_ratio"] = (1.0 - evals / lookups if lookups else 0.0, "ratio")
    metrics["trace.overhead_ms"] = ((traced_s - base) * 1e3 / rounds, "ms")
    metrics["trace.base_ms"] = (base * 1e3 / rounds, "ms")
    detail = {"rounds_traced": rounds, "spans": tracer.dump()}
    return attempted, failed, failures, metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "unrolled_sl2")):
        print(f"error: library sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # the reference kernel's times through set-up, to take it at reference speed
    probes = [ref_kernel()]
    from workloads import RMAX, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    t_inputs = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed, args.jet_order)
    t_inputs = time.perf_counter() - t_inputs

    calibrate_s = {}
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()

        def on_r(r):
            probes.append(ref_kernel())
            tracer.r = r
        tracer.install()
        try:
            workload.configure(on_r)
        finally:
            tracer.uninstall()
        calibrate_s = tracer.inclusive_times("ribbon.calibrate")
    else:
        workload.configure(lambda r: probes.append(ref_kernel()))
    workload.warm_up()
    probes.append(ref_kernel())
    # the seeded inputs and the probes are the benchmark's own work, not the
    # library's set-up
    setup_wall = time.perf_counter() - T_START - t_inputs - sum(probes)
    setup_s = setup_wall * REF_KERNEL_S / statistics.mean(probes)

    if args.trace:
        attempted, failed, failures, metrics, detail = traced(
            workload, args.seconds, RMAX, calibrate_s)
    else:
        attempted, failed, failures, metrics, detail = end_to_end(
            workload, args.seconds, RMAX, setup_s)

    result = {
        "correct": attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump({**result, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "jet_order": args.jet_order,
                   "failures": failures, **detail}, f)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
