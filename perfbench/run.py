"""Layered benchmark of badderlocks: seeded closed-loop workloads, checked against the reference.

    python3 perfbench/run.py --workload digest-short --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload digest-short --seed 1 --seconds 10 --trace 1

Run it from the root of a checkout.  --trace 0 reports the end-to-end
metrics named in BENCHMARK.json; --trace 1 reports its per-layer metrics
from a traced run, next to an untraced run that gives the tracing overhead.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds provenance and
detail.  Exit status: 0 when every output matched the oracle, 1 on any
mismatch, 2 on a usage error or a checkout without the library.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import repo

SETUP_PROBES = 7           # fresh processes timed for setup_s; the median is reported
CLI_PROBES = 5             # fresh `python -m badderlocks classify` runs for cli.oneshot_ms
CLI_BITS = 1744
CLI_MESSAGE = b"hello world"
BUDGET_S = 170             # every child is killed before the run exceeds this
SUITES = ("c1", "c2-fox", "c2-small", "c2-mixed")
MEASURED = ("ops_per_s", "op_p50_ms", "op_tail_ms", "mib_per_s", "peak_rss_mib")  # by the measuring child


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = repo.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "seed": seed,
        "loadavg_before": os.getloadavg(),
    }


def check_vectors() -> dict[str, bool]:
    """Reproduce the four embedded vector suites through the CLI's own checker."""
    from badderlocks import cli

    with contextlib.redirect_stdout(sys.stderr):
        return {s: cli.dispatch(["vectors", "--suite", s, "--check"]) == 0 for s in SUITES}


def classifier_path(workloads, workload: str, key) -> str:
    """Which classifier one op of the workload runs: the engine or the reference."""
    import spans

    tracer = spans.Tracer()
    restore = spans.install(tracer, workloads)
    try:
        workloads.OPS[workload](key, b"path probe")
    finally:
        restore()
    if "classifier.classify" in tracer.names:
        return "reference"
    return "engine" if "fastcrc.finish" in tracer.names else "none"


class Children:
    """Runs worker.py children, each killed if it would overrun the run's budget."""

    def __init__(self, budget_s: float):
        self.deadline = time.monotonic() + budget_s

    def timeout(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark run exceeded its time budget")
        return left

    def worker(self, *args) -> dict:
        proc = subprocess.run([sys.executable, str(repo.HERE / "worker.py"), *map(str, args)],
                              cwd=repo.ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=self.timeout(), check=True)
        return json.loads(proc.stdout.splitlines()[-1])

    def cli_oneshot(self, expected_hex: str) -> tuple[float, bool]:
        """Median wall time of a fresh CLI classify, and whether every output was right."""
        pythonpath = [str(repo.SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
        argv = [sys.executable, "-m", "badderlocks", "classify", "--bits", str(CLI_BITS)]
        times, ok = [], True
        for probe in range(CLI_PROBES + 1):  # the first run warms the page cache and is dropped
            start = time.perf_counter()
            proc = subprocess.run(argv, input=CLI_MESSAGE, capture_output=True, cwd=repo.ROOT,
                                  env=env, timeout=self.timeout())
            elapsed = time.perf_counter() - start
            ok = ok and proc.returncode == 0 and proc.stdout.decode().strip() == expected_hex
            if probe:
                times.append(elapsed)
        return statistics.median(times) * 1e3, ok


def result_line(spec: list[dict], values: dict, correct: bool, attempted: int, failed: int) -> dict:
    """The contract line: every metric BENCHMARK.json names for this mode, with its unit."""
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        repo.import_library()
    except repo.LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads
    from badderlocks import classifier, params

    if args.workload not in workloads.OPS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.OPS)}")
    spec = json.loads((repo.ROOT / "BENCHMARK.json").read_text())
    children = Children(BUDGET_S)
    info = {"workload": args.workload, "trace": args.trace, "provenance": provenance(args.seed)}

    # Correctness gate, before anything is timed.
    info["vectors"] = check_vectors()
    ops = workloads.make_ops(args.workload, args.seed)
    expected = workloads.expected_path(args.workload, args.seed, ops)
    info["classifier_path"] = classifier_path(workloads, args.workload, ops[0][0])
    spans_out = repo.HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl.gz"
    spans_out.parent.mkdir(exist_ok=True)

    run = children.worker("measure", args.workload, args.seed, args.seconds, 0, expected, spans_out)
    runs = [run]
    values = {k: run[k] for k in MEASURED}
    checks_ok = all(info["vectors"].values())
    if args.trace:
        traced = children.worker("measure", args.workload, args.seed, args.seconds, 1, expected, spans_out)
        runs.append(traced)
        values.update(traced["layers"])
        values["trace.overhead_ratio"] = run["ops_per_s"] / traced["ops_per_s"]
        want = classifier.classify(CLI_MESSAGE, params.entry_for_aligned_bits(CLI_BITS)).hex()
        values["cli.oneshot_ms"], cli_ok = children.cli_oneshot(want)
        checks_ok = checks_ok and cli_ok
        info["cli_ok"] = cli_ok
        info["spans_file"] = str(spans_out.relative_to(repo.ROOT))
    else:
        children.worker("setup", args.workload)  # warm-up, not counted
        probes = [children.worker("setup", args.workload) for _ in range(SETUP_PROBES)]
        values["setup_s"] = statistics.median(p["setup_s"] for p in probes)
        info["setup_probes"] = probes

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    info.update({
        "loadavg_after": os.getloadavg(),
        "fail_ratio": failed / attempted,
        "passes": [r["passes"] for r in runs],
        "ops_per_pass": run["ops_per_pass"],
        "tail": {"percentile": run["tail_percentile"], "samples_per_pass": int(run["tail_samples"])},
        "measure_child_setup_s": [r["setup_s"] for r in runs],
        "untraced": {k: run[k] for k in MEASURED},
        "raw": [r["raw"] for r in runs],
        "calibration_slice_s": [r["calibration_slice_s"] for r in runs],
        "first_error": next((r["first_error"] for r in runs if r["first_error"]), None),
    })
    mode = "per_layer" if args.trace else "end_to_end"
    result = result_line(spec[mode], values, checks_ok and failed == 0, attempted, failed)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
