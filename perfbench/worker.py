"""Child process of the benchmark: one set-up probe or one measured run.

    python3 perfbench/worker.py setup WORKLOAD
    python3 perfbench/worker.py measure WORKLOAD SEED SECONDS TRACE EXPECTED SPANS

Each prints one JSON object as the last line of its standard output.
"""

from __future__ import annotations

import argparse
import hashlib  # noqa: F401  used by workloads; imported before the set-up clock starts
import json
import random  # noqa: F401  likewise
import resource
import statistics
import sys
import time
import traceback

import calib
import repo

MIB = 1 << 20
TAIL_BEYOND = 10


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, sample count).  The value is the 11th
    largest sample, so exactly 10 lie beyond it.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    return sorted(samples)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def pass_stats(latencies: list[float], nbytes: int) -> dict[str, float]:
    """End-to-end figures of one pass over the op list, from its op latencies."""
    value, percentile, n = tail(latencies)
    busy = sum(latencies)
    return {
        "ops_per_s": n / busy,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": value * 1e3,
        "mib_per_s": nbytes / busy / MIB,
        "tail_percentile": percentile,
        "tail_samples": n,
    }


def peak_rss_mib() -> float:
    """Peak resident set of this process image.

    VmHWM starts afresh at exec.  ru_maxrss does not: on Linux it keeps the
    parent's resident set from before the exec, so it is only a fallback.
    """
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def summarise(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median of each per-pass figure; every pass runs the same ops."""
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}


def load(workload: str, tracer=None):
    """Import the library, load the registry and build the workload's tables.

    Returns the workloads module and the seconds it took.  With a tracer,
    span recorders go in after the import and before the registry loads.
    """
    start = time.perf_counter()
    repo.import_library()
    import workloads

    if tracer is not None:
        import spans

        spans.install(tracer, workloads)
    workloads.setup(workload)
    return workloads, time.perf_counter() - start


def measure(args) -> dict:
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    workloads, setup_s = load(args.workload, tracer)
    ops = workloads.make_ops(args.workload, args.seed)
    expected = workloads.load_expected(args.expected)
    nbytes = workloads.message_bytes(ops)
    op = workloads.OPS[args.workload]
    if tracer is not None:
        op = spans.wrap(tracer, "op", op)

    clock = time.perf_counter
    speed = calib.Speed(clock)
    passes, raw_passes, windows, failed, first_error = [], [], [], 0, None
    start = clock()
    while True:
        starts, latencies, outputs = [], [], []
        begin = clock()
        for key, message in ops:
            speed.maybe_sample()
            t = clock()
            try:
                out = op(key, message)
            except Exception:  # a failed op is counted, not fatal
                out = None
                first_error = first_error or traceback.format_exc()
            latencies.append(clock() - t)
            starts.append(t)
            outputs.append(out)
        end = clock()
        for _ in range(calib.NEAR):  # slices after the last op
            speed.sample()
        windows.append((begin, end))
        passes.append(pass_stats([lat * speed.scale(t, t + lat) for t, lat in zip(starts, latencies)],
                                 nbytes))
        raw_passes.append(pass_stats(latencies, nbytes))
        failed += workloads.mismatches(outputs, expected)  # outside the timed pass
        if end - start >= args.seconds:
            break

    if first_error:
        print(first_error, file=sys.stderr)
    result = {
        "setup_s": setup_s,
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "attempted": len(ops) * len(passes),
        "failed": failed,
        "first_error": first_error,
        "peak_rss_mib": peak_rss_mib(),
        **summarise(passes),
        "raw": summarise(raw_passes),
        "calibration_slice_s": statistics.median(speed.slices),
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer, windows)
        result["spans"] = len(tracer)
        tracer.write(args.spans)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("workload")
    p = sub.add_parser("measure")
    p.add_argument("workload")
    p.add_argument("seed", type=int)
    p.add_argument("seconds", type=float)
    p.add_argument("trace", type=int, choices=(0, 1))
    p.add_argument("expected")
    p.add_argument("spans")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        setup_s = load(args.workload)[1]
        after = calib.Speed()  # slices right after the set-up
        result = {"setup_s": setup_s * after.scale(0.0, 0.0), "raw_setup_s": setup_s}
    else:
        result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
