#!/usr/bin/env python3
"""corrkem benchmark: one closed-loop client, one process, one workload.

    python3 perfbench/run.py --workload kem_satellite_n16 --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py for why each was chosen):

    kem_satellite_n16   sample + encap + decap, satellite source, n = 16
    cli_hybrid_n280     cli.main: plan -> gen -> encrypt -> decrypt -> tampered decrypt
    verify_micro        exact and Monte Carlo checks on honest micro instances

With ``--trace 0`` the run measures for ``--seconds`` (at least 200 ops,
whole passes) with tracing off, runs the host-speed probe after every
half second of op time, and reports the end-to-end metrics.
With ``--trace 1`` it runs fixed-length passes of all three workloads
with tracing on (each op of the named workload also untraced, to measure
the tracer's overhead), plus the list-size sweep and the kernel cases,
and reports the per-layer metrics.  Every op's output is checked in both
modes.  The last line of stdout is the JSON result; the exit code is 0
when every check passed.
"""

import argparse
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PROGRAM_DIR = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
THREADS = min(2, os.cpu_count() or 1)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_OPS = 200  # p95 then has at least 10 samples beyond it
SETUP_RUNS = 7
TRACED_OPS = {"kem_satellite_n16": 200, "cli_hybrid_n280": 100, "verify_micro": 50}
KERNEL_REPS = 7
PROBE_EVERY_S = 0.5  # op time between two host-speed probes in the timed loop


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=list(TRACED_OPS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ops", type=int, default=None,
                   help="run exactly this many ops per pass instead of timing, "
                        "with one set-up run (smoke test)")
    p.add_argument("--fault", choices=("key", "plaintext", "distance"), default=None,
                   help="plant a wrong output after the program returns, to test the checks")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.ops is not None and args.ops < 1:
        p.error("--ops must be at least 1")
    return args


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)] if ordered else float("nan")


def setup_probe(args) -> int:
    """Child process: import corrkem, build inputs, complete the first op."""
    t0 = perf_counter()
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, workdir=OUT_DIR)
    try:
        wl.op(0)
    finally:
        wl.close()
    print(repr(perf_counter() - t0))
    return 0


def setup_seconds(args) -> float:
    """Median set-up time over fresh processes (one with `--ops`); one
    extra first run fills the bytecode cache and is dropped."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for k in range((1 if args.ops else SETUP_RUNS) + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        if done.returncode:
            raise RuntimeError(f"set-up probe exited {done.returncode}: {done.stderr[-2000:]}")
        if k:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _clmul20(a: int, b: int) -> int:
    """Carry-less product of a and b reduced mod x^20 + x^3 + 1."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> 20:
            a ^= 0x100009
    return r


def machine_probe_ms(np) -> float:
    """Fixed work that stands for host speed, outside corrkem: a pure-Python
    arithmetic loop, a pure-Python bit-level loop shaped like decap's
    (candidate subsets packed into codes and multiplied in GF(2^20)), and
    a numpy loop, in about the proportions in which the workloads mix
    interpreter and numpy time."""
    t0 = perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    h = 1
    for subset in itertools.islice(itertools.combinations(range(16), 4), 600):
        code = 0
        for s in subset:
            code = code * 16 + s
        h = _clmul20(h ^ (code & 0xFFFFF), 0x5A5A5)
    a = np.arange(100_000, dtype=np.float64)
    for _ in range(12):
        a = np.sqrt(a * 1.0001 + 1.0)
    return (perf_counter() - t0) * 1e3


def run_op(wl, i: int, errors: list[str], tracer=None):
    """Op `i`'s latency, or None when it failed (the reason goes to
    `errors`).  With a tracer, the tracer is installed for this op only."""
    import workloads

    if tracer is not None:
        tracer.install()
        tracer.begin_op(wl.name)
    try:
        return wl.op(i)
    except workloads.OpFailed as exc:
        errors.append(f"{wl.name} op {i}: {exc}")
    except Exception as exc:  # an op that raised counts as failed
        errors.append(f"{wl.name} op {i} raised {type(exc).__name__}: {exc}")
    finally:
        if tracer is not None:
            tracer.current_op = -1
            tracer.uninstall()
    return None


def run_loop(wl, seconds: float, min_ops: int, tracer=None, probe=None):
    """Closed loop: op i + 1 starts when op i has returned.  Runs for
    `seconds`, at least `min_ops` ops, and ends on a whole pass.  With
    `probe`, also calls it before the first op and after every
    PROBE_EVERY_S of op time, and returns what it measured."""
    latencies, errors, probes = [], [], []
    i = 0
    since_probe = PROBE_EVERY_S
    start = perf_counter()
    while i < min_ops or i % wl.pass_len or perf_counter() - start < seconds:
        if probe is not None and since_probe >= PROBE_EVERY_S:
            probes.append(probe())
            since_probe = 0.0
        lat = run_op(wl, i, errors, tracer)
        if lat is not None:
            latencies.append(lat)
            since_probe += lat
        i += 1
    return latencies, errors, probes


def timed_run(wl, args, setup_s):
    import numpy as np
    import workloads

    lat, errors, probes = run_loop(wl, 0 if args.ops else args.seconds, args.ops or MIN_OPS,
                                   probe=lambda: machine_probe_ms(np))
    attempted = len(lat) + len(errors)
    ops_per_s = len(lat) / sum(lat) if lat else float("nan")
    probe_s = statistics.fmean(probes) / 1e3
    metrics = {
        # throughput in units of the host's current speed: ops completed in
        # the time one probe takes, with the probe spread over the whole run
        "ops_per_probe": (ops_per_s * probe_s, "1/probe"),
        "setup_s": (setup_s, "s"),
    }
    beyond = len(lat) - math.ceil(0.95 * len(lat))
    notes = [f"samples {len(lat)} ops in {sum(lat):.2f} s of op time ({beyond} beyond p95)",
             f"ops_per_s {ops_per_s:.6g} 1/s (ops_per_probe = ops_per_s x mean probe "
             f"{probe_s * 1e3:.4g} ms over {len(probes)} probes in the loop)",
             f"op_p50_ms {percentile(lat, 0.50) * 1e3:.6g} ms",
             f"op_p95_ms {percentile(lat, 0.95) * 1e3:.6g} ms",
             f"failed_ops_ratio {len(errors) / attempted:.6g} ratio ({len(errors)}/{attempted})"]
    if isinstance(wl, workloads.KemSatellite):
        failures, window = wl.decap_failures()
        notes.append(f"decap_failure_ratio {failures / max(1, window):.6g} ratio "
                     f"({failures}/{window}, ops 0..{window - 1})")
    return metrics, attempted, errors, notes


def traced_run(wl, args):
    """Each op of `wl` both untraced and traced, traced passes of the other
    workloads, then the sweep and kernel cases."""
    import tracing
    import workloads

    tr = tracing.Tracer()
    ops = args.ops or TRACED_OPS[wl.name]
    ops += -ops % wl.pass_len
    ratios, traced_w, errors = [], [], []
    for i in range(ops):
        # the second run of an op finds warm caches, so alternate the order
        if i % 2 == 0:
            plain = run_op(wl, i, errors)
            with_trace = run_op(wl, i, errors, tr)
        else:
            with_trace = run_op(wl, i, errors, tr)
            plain = run_op(wl, i, errors)
        if with_trace is not None:
            traced_w.append(with_trace)
            if plain is not None:
                ratios.append(with_trace / plain)
    attempted = 2 * ops
    traced = {wl.name: traced_w}
    kem = wl
    for name, cls in workloads.WORKLOADS.items():
        if name == wl.name:
            continue
        other = cls(args.seed, args.fault, OUT_DIR)
        try:
            try:
                other.prepare()
            except workloads.OpFailed as exc:
                errors.append(f"{name} prepare: {exc}")
                attempted += 1
            traced[name], errs, _ = run_loop(other, 0, args.ops or TRACED_OPS[name], tr)
        finally:
            other.close()
        errors += errs
        attempted += len(traced[name]) + len(errs)
        if isinstance(other, workloads.KemSatellite):
            kem = other
    direct = tracing.direct_metrics(tr, args.seed, 3 if args.ops else KERNEL_REPS)
    metrics = tracing.layer_metrics(tracing.SpanTable(tr), kem.outcomes) | direct
    # per-op ratios, because the ops of one workload can differ in cost
    metrics["trace.overhead_ratio"] = (percentile(ratios, 0.5), "ratio")
    notes = [f"traced ops: {wl.name} {len(traced_w)} (each also run untraced), "
             + ", ".join(f"{k} {len(v)}" for k, v in traced.items() if k != wl.name)]
    spans_path = OUT_DIR / f"spans-{wl.name}.npz"
    tr.save(spans_path)
    notes.append(f"{len(tr.start)} spans written to {spans_path.relative_to(ROOT)}")
    return metrics, attempted, errors, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    if not (PROGRAM_DIR / "corrkem" / "__init__.py").is_file():
        print(f"perfbench: no corrkem sources under {PROGRAM_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(PROGRAM_DIR))
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(args)

    setup_s = None if args.trace else setup_seconds(args)
    import numpy as np

    import corrkem
    import workloads

    if Path(corrkem.__file__).resolve().parent.parent != PROGRAM_DIR:
        print(f"perfbench: imported corrkem from {corrkem.__file__}, not {PROGRAM_DIR}", file=sys.stderr)
        return 2
    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "backend": corrkem.BACKEND, "nproc": os.cpu_count(), "threads": THREADS,
            "python": platform.python_version(), "numpy": np.__version__}
    print("meta " + json.dumps(meta))
    probes = [machine_probe_ms(np) for _ in range(3)]

    wl = workloads.WORKLOADS[args.workload](args.seed, args.fault, OUT_DIR)
    try:
        check_errors = []
        try:
            wl.prepare()
        except workloads.OpFailed as exc:
            check_errors.append(f"{wl.name} prepare: {exc}")
        if args.trace:
            metrics, attempted, errors, notes = traced_run(wl, args)
        else:
            metrics, attempted, errors, notes = timed_run(wl, args, setup_s)
    finally:
        wl.close()

    probes += [machine_probe_ms(np) for _ in range(3)]
    notes.append("machine.probe_ms " + " ".join(f"{p:.2f}" for p in probes))
    if args.trace:
        metrics["machine.probe_ms"] = (statistics.median(probes), "ms")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>14.6g} {unit}")
    for msg in (check_errors + errors)[:10]:
        print(f"CHECK FAILED: {msg}")
    correct = not check_errors and not errors
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": None if math.isnan(v) else v, "unit": u}
                    for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
