"""Span recorder for the traced run, and the per-layer metrics taken from its spans.

install() replaces module attributes of the library, and the benchmark's own
sha256 name, with wrappers that record one span per call: name, start, end,
parent span and a small size annotation.  Spans stay in memory as parallel
lists, which the garbage collector need not walk one by one, and are written
out when the run ends.  The untraced run never calls install().
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import json
import statistics
import time
from collections import defaultdict

MIB = 1 << 20
FINISH_BITS = (64, 416, 1744, 4288)
ABSORB_BITS = (64, 1744, 4288)


class Tracer:
    """In-memory span store for one single-threaded run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.info: list = []
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def open(self, name: str, info=None) -> int:
        """Start a span under the innermost open one; returns its index."""
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.info.append(info)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(self.clock())  # last, so the bookkeeping above stays outside the span
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while span {popped} was innermost")

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children.

        Children of one span never overlap in a single thread, so their
        summed durations are the part of the parent's interval they cover.
        """
        own = self.durations()
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        return own

    def write(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            for row in zip(self.names, self.starts, self.ends, self.parents, self.info):
                f.write(json.dumps(dict(zip(("name", "start", "end", "parent", "info"), row))))
                f.write("\n")


def wrap(tracer: Tracer, name: str, fn, info=None):
    """fn with every call recorded as a span; info(*args) annotates the span."""

    def traced(*args, **kwargs):
        idx = tracer.open(name, info(*args, **kwargs) if info else None)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return functools.update_wrapper(traced, fn)


class TracedSha256:
    """hashlib.sha256 stand-in whose update calls are recorded as hash.sha256 spans."""

    def __init__(self, tracer: Tracer, data: bytes = b""):
        self._tracer = tracer
        self._h = hashlib.sha256()
        if data:
            self.update(data)

    def update(self, data: bytes) -> None:
        idx = self._tracer.open("hash.sha256", len(data))
        try:
            self._h.update(data)
        finally:
            self._tracer.close(idx)

    def digest(self) -> bytes:
        return self._h.digest()


def install(tracer: Tracer, workloads) -> callable:
    """Route calls into each layer through span recorders; returns a function that undoes it."""
    from badderlocks import classifier, fastcrc, gf2poly, params, reefshoal, sbox

    targets = [
        (params, "registry", None),
        (gf2poly, "compose_tgfsr", None),
        (gf2poly, "is_irreducible", None),
        (gf2poly, "remainder", lambda dividend, *_: (dividend.value.bit_length() + 7) // 8),
        (sbox, "expand_message", lambda m: len(m)),
        (classifier, "classify", None),
        (fastcrc, "build_tables", None),
        (fastcrc, "engine_init", None),
        (fastcrc.CrcEngine, "absorb", lambda engine, chunk: (engine.entry.aligned_bits, len(chunk))),
        (fastcrc.CrcEngine, "finish", lambda engine: (engine.entry.aligned_bits, 0)),
        (reefshoal, "plan_layout", None),
        (reefshoal, "assemble", None),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    saved.append((workloads, "sha256", workloads.sha256))
    for owner, attr, info in targets:
        prefix = "fastcrc" if owner is fastcrc.CrcEngine else owner.__name__.rsplit(".", 1)[-1]
        setattr(owner, attr, wrap(tracer, f"{prefix}.{attr}", getattr(owner, attr), info))
    workloads.sha256 = functools.partial(TracedSha256, tracer)

    def restore() -> None:
        for owner, attr, original in saved:
            setattr(owner, attr, original)

    return restore


def layer_metrics(tracer: Tracer, passes: list[tuple[float, float]]) -> dict[str, float]:
    """Per-layer metrics from a traced run whose measured passes span the given windows.

    Counts come from the first pass, so they repeat exactly for one seed;
    rates, shares and latencies use every measured pass.  A layer the
    workload does not reach reports 0.
    """
    names, starts, parents, info = tracer.names, tracer.starts, tracer.parents, tracer.info
    dur = tracer.durations()
    run_lo, run_hi = passes[0][0], passes[-1][1]
    first_lo, first_hi = passes[0]
    everywhere: dict[str, list[int]] = defaultdict(list)
    run: dict[str, list[int]] = defaultdict(list)
    first: dict[str, list[int]] = defaultdict(list)
    for i, name in enumerate(names):
        everywhere[name].append(i)
        if run_lo <= starts[i] <= run_hi:
            run[name].append(i)
            if first_lo <= starts[i] <= first_hi:
                first[name].append(i)

    op_time = sum(dur[i] for i in run["op"])

    def total(idx):
        return sum(dur[i] for i in idx)

    def share(name):
        return total(run[name]) / op_time if op_time else 0.0

    def rate(idx, size):
        busy = total(idx)
        return sum(size(i) for i in idx) / busy / MIB if busy else 0.0

    def p50_us(values):
        return statistics.median(values) * 1e6 if values else 0.0

    registry_load = everywhere["params.registry"][0]
    load_lo, load_hi = starts[registry_load], starts[registry_load] + dur[registry_load]
    verify = {"gf2poly.compose_tgfsr", "gf2poly.is_irreducible"}
    verify_top = [i for name in verify for i in everywhere[name]
                  if load_lo <= starts[i] <= load_hi
                  and (parents[i] < 0 or names[parents[i]] not in verify)]

    inits, builds_in_run = len(run["fastcrc.engine_init"]), len(run["fastcrc.build_tables"])
    out = {
        "params.registry_load_ms": dur[registry_load] * 1e3,
        "gf2poly.verify_quick_ms": total(verify_top) * 1e3,
        "gf2poly.remainder_calls": len(first["gf2poly.remainder"]),
        "gf2poly.remainder_mib_per_s": rate(run["gf2poly.remainder"], info.__getitem__),
        "sbox.expand_mib_per_s": rate(run["sbox.expand_message"], info.__getitem__),
        "sbox.expand_share": share("sbox.expand_message"),
        "classifier.classify_calls": len(first["classifier.classify"]),
        "classifier.classify_share": share("classifier.classify"),
        "fastcrc.tables_built": len(everywhere["fastcrc.build_tables"]),
        "fastcrc.build_tables_ms": total(everywhere["fastcrc.build_tables"]) * 1e3,
        "fastcrc.table_hit_ratio": (inits - builds_in_run) / inits if inits else 0.0,
        "fastcrc.engine_init_us": p50_us([dur[i] for i in run["fastcrc.engine_init"]]),
    }
    for bits in FINISH_BITS:
        out[f"fastcrc.finish_us.{bits}"] = p50_us(
            [dur[i] for i in run["fastcrc.finish"] if info[i][0] == bits])
    out["fastcrc.finish_share"] = share("fastcrc.finish")
    out["fastcrc.finish_calls"] = len(first["fastcrc.finish"])
    for bits in ABSORB_BITS:
        out[f"fastcrc.absorb_mib_per_s.{bits}"] = rate(
            [i for i in run["fastcrc.absorb"] if info[i][0] == bits], lambda i: info[i][1])
    out["fastcrc.absorb_share"] = share("fastcrc.absorb")
    out["fastcrc.bytes_absorbed"] = sum(info[i][1] for i in first["fastcrc.absorb"])
    out["reefshoal.plan_layout_us"] = p50_us([dur[i] for i in run["reefshoal.plan_layout"]])
    own = tracer.self_times()
    out["reefshoal.assemble_self_us"] = p50_us([own[i] for i in run["reefshoal.assemble"]])
    out["hash.sha256_mib_per_s"] = rate(run["hash.sha256"], info.__getitem__)
    out["hash.sha256_share"] = share("hash.sha256")
    return out
