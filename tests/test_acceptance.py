"""Acceptance gate: nine numbered criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they are produced.  Every criterion runs on every run; criterion 5, full
registry verification, takes a few seconds.
"""

import os
import random
import re
import time
from operator import add

from badderlocks import classifier, fastcrc, gf2poly, params, sbox
from badderlocks.cli import _load_suite


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_expansion_rows():
    t0 = time.perf_counter()
    rows = _load_suite("c1")
    mismatches = 0
    for _, message, expected in rows:
        p = sbox.expand_message(message)
        width = (9 * max(8, len(message)) + 3) // 4
        if gf2poly.render_hex(p, width=width) != expected:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = len(rows) == 32 and mismatches == 0 and elapsed < 1.0
    _verdict(1, ok, f"{len(rows) - mismatches}/{len(rows)} expansion rows "
                    f"bit-exact in {elapsed:.3f}s (budget 1s)")


def test_criterion_2_fox_suite_both_engines():
    rows = _load_suite("c2-fox")
    assert len(rows) == 30
    t0 = time.perf_counter()
    ref_bad = sum(
        classifier.classify(m, params.entry_for_aligned_bits(bits)).hex() != exp
        for bits, m, exp in rows)
    t_ref = time.perf_counter() - t0
    t0 = time.perf_counter()
    fast_bad = sum(
        fastcrc.engine_init(params.entry_for_aligned_bits(bits))
        .absorb(m).finish().hex() != exp
        for bits, m, exp in rows)
    t_fast = time.perf_counter() - t0
    ok = ref_bad == 0 and fast_bad == 0 and t_ref < 10.0 and t_fast < 1.0
    _verdict(2, ok, f"30/30 rows, sizes 64-4288; reference {t_ref:.2f}s "
                    f"(budget 10s), fast {t_fast:.2f}s (budget 1s)")


def test_criterion_3_small_and_mixed_suites():
    bad = 0
    total = 0
    for suite in ("c2-small", "c2-mixed"):
        for bits, m, expected in _load_suite(suite):
            total += 1
            e = params.entry_for_aligned_bits(bits)
            if classifier.classify(m, e).hex() != expected:
                bad += 1
    ok = total == 22 and bad == 0
    _verdict(3, ok, f"{total - bad}/{total} small-message and "
                    f"varying-highest-bit rows bit-exact")


def test_criterion_4_registry_quick():
    t0 = time.perf_counter()
    failures = []
    for e in params.registry():
        report = params.verify_entry(e, level="quick")
        if not report.ok:
            failures.append((e.index, report.failures()))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 5.0
    _verdict(4, ok, f"30/30 entries pass quick verification "
                    f"(size formula, degree, alignment, composition, "
                    f"irreducible base) in {elapsed:.2f}s (budget 5s); "
                    f"failures: {failures or 'none'}")


def test_criterion_5_registry_full():
    t0 = time.perf_counter()
    failures = []
    for e in params.registry():
        report = params.verify_entry(e, level="full")
        if not report.ok:
            failures.append((e.index, report.failures()))
    elapsed = time.perf_counter() - t0
    _verdict(5, not failures,
             f"30/30 generators irreducible and recovered by the "
             f"Berlekamp-Massey round-trip in {elapsed:.1f}s; "
             f"failures: {failures or 'none'}")


def test_criterion_6_engine_equivalence():
    rng = random.Random(600)
    lengths = [n for n in range(17) for _ in range(26)]  # 442
    lengths += [100] * 30 + [1000] * 25 + [65537] * 3    # 500 total
    assert len(lengths) == 500
    messages = [bytes(rng.randrange(256) for _ in range(n)) for n in lengths]
    mismatches = 0
    for e in params.registry():
        for m in messages:
            fast = fastcrc.engine_init(e).absorb(m).finish().data
            if fast != classifier.classify(m, e).data:
                mismatches += 1
    chunk_bad = 0
    e = params.entry_for_aligned_bits(416)
    for m in messages[:50] + messages[-3:]:
        eng = fastcrc.engine_init(e)
        pos = 0
        while pos < len(m):
            step = rng.randrange(1, len(m) - pos + 1)
            eng.absorb(m[pos:pos + step])
            pos += step
        if eng.finish().data != fastcrc.engine_init(e).absorb(m).finish().data:
            chunk_bad += 1
    ok = mismatches == 0 and chunk_bad == 0
    _verdict(6, ok, f"500 messages x 30 entries: {mismatches} engine "
                    f"mismatches; {chunk_bad} chunking-invariance failures")


def test_criterion_7_sbox_construction():
    t0 = time.perf_counter()
    count_ok = len(sbox.candidates_308()) == 308
    table = sbox.codeword_table()
    table_ok = (len(table.entries) == 256
                and all(b > a for a, b in zip(table.entries, table.entries[1:]))
                and set(table.entries) <= sbox.candidates_308()
                and sbox.FILLER not in table.entries)
    values = table.entries + (sbox.FILLER,)
    # Per value, read off its bit string: leading, trailing and longest run,
    # and for each window offset the weight of the bits the window takes
    # from it as the first (tail) or the second (head) codeword of a pair.
    runs, tail, head = {}, {}, {}
    for v in values:
        bits = f"{v:09b}"
        runs[v] = (len(bits) - len(bits.lstrip(bits[0])),
                   len(bits) - len(bits.rstrip(bits[-1])),
                   max(map(len, re.findall("0+|1+", bits))))
        tail[v] = [(v & ((1 << off) - 1)).bit_count() for off in range(10)]
        head[v] = [(v >> off).bit_count() for off in range(10)]
    longest, longest_pair = 0, None
    low, high, example = 9, 0, None
    for a in values:
        _, trail_a, run_a = runs[a]
        for b in values:
            lead_b, _, run_b = runs[b]
            run = max(run_a, run_b, trail_a + lead_b if a & 1 == b >> 8 else 0)
            if run > longest:
                longest, longest_pair = run, (a, b)
            weights = list(map(add, tail[a], head[b]))
            lo, hi = min(weights), max(weights)
            if example is None and (lo < 2 or hi > 7):
                off = next(i for i, w in enumerate(weights) if not 2 <= w <= 7)
                example = (a, b, off, weights[off])
            low, high = min(low, lo), max(high, hi)
    elapsed = time.perf_counter() - t0
    # The rules allow at most 3 trailing plus 2 leading identical bits across
    # a boundary and no run over 5 inside a codeword, so runs stay within 5
    # (88|69 reaches it) and every window weight within [1,8].
    run_ok = longest == 5
    window_ok = low >= 1 and high <= 8
    # The [2,7] design intent is not met; these two hand-checked pairs pin it:
    # 88 = 001011000, 69 = 001000101 give the window 000|001000 (weight 1),
    # 87 = 001010111, 377 = 101111001 give the window 111|101111 (weight 8).
    counter_ok = ({88, 69, 87, 377} <= set(values)
                  and (((88 << 9 | 69) >> 3) & 0x1FF).bit_count() == 1
                  and (((87 << 9 | 377) >> 3) & 0x1FF).bit_count() == 8)
    ok = (count_ok and table_ok and run_ok and window_ok and counter_ok
          and elapsed < 1.0)
    _verdict(7, ok, f"candidate count 308: {'yes' if count_ok else 'NO'}; "
                    f"table well-formed: {'yes' if table_ok else 'NO'}; "
                    f"longest run over codeword pairs 5: "
                    f"{'yes' if run_ok else 'NO'} "
                    f"(observed {longest}, first at {longest_pair}); "
                    f"window weights within [1,8]: "
                    f"{'yes' if window_ok else 'NO'} "
                    f"(observed [{low},{high}], first [2,7] violation "
                    f"{example}); counterexamples 88|69 -> 1 and "
                    f"87|377 -> 8: {'yes' if counter_ok else 'NO'}; "
                    f"{elapsed:.2f}s")


def test_criterion_8_entropy_diagnostic():
    e = params.entry_for_aligned_bits(64)
    ratio = classifier.entropy_ratio([bytes([b]) for b in range(256)], e)
    _verdict(8, ratio == 1.0,
             f"entropy ratio over all 256 one-byte messages at the 64-bit "
             f"entry is {ratio} (required exactly 1.0)")


def test_criterion_9_throughput():
    e = params.entry_for_aligned_bits(64)
    data = os.urandom(16 * 1024 * 1024)
    fastcrc.engine_init(e)  # table construction happens outside the clock
    t0 = time.perf_counter()
    fast = fastcrc.engine_init(e).absorb(data).finish()
    t_fast = time.perf_counter() - t0
    t0 = time.perf_counter()
    ref = classifier.classify(data, e)
    t_ref = time.perf_counter() - t0
    ok = fast.data == ref.data and t_fast < t_ref
    _verdict(9, ok, f"16 MiB: fast {len(data) / t_fast / 2**20:.2f} MiB/s vs "
                    f"reference {len(data) / t_ref / 2**20:.2f} MiB/s "
                    f"(fast must strictly exceed reference; outputs "
                    f"{'match' if fast.data == ref.data else 'DIFFER'})")
