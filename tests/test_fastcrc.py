import dataclasses
import multiprocessing
import os
import random
import re
import shutil
import subprocess
import sys
import sysconfig
import threading
import time
from array import array
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from badderlocks import classifier, fastcrc, gf2poly, params, sbox
from badderlocks.fastcrc import build_tables, engine_init

FOX = b"The quick brown fox jumps over the lazy dog"
PYTHON_INCLUDE = sysconfig.get_paths()["include"]  # where the module's build finds Python.h


# the kernel's absorb loops, in the order build_tables prefers them
KERNEL_PATHS = ("vpclmul", "clmul", "native")
CARRYLESS_PATHS = KERNEL_PATHS[:2]
# the chunk size from which the "-split" variants absorb on two threads: the smallest
# split floor any code or test uses
TEST_SPLIT_BYTES = 1024
# the bytes of one block step on vpclmul: B = 144 words of codewords, 1 KiB
BLOCK_BYTES = 1024
# how long a test repeats split absorbs until the worker takes a part: a caller takes
# back a part the worker has not started, as when the scheduler has put the worker on
# the caller's CPU until it balances the two
WORKER_PATIENCE_S = 10
# the table cache of each path, kept for the whole test run
_path_tables: dict[str, dict] = {}


def use_path(monkeypatch, path):
    """Make engines built from here on run the given path.

    A kernel path is forced by clearing the loops build_tables would pick
    first, as on a CPU the CPU check finds without them: "clmul" clears
    vpclmul, "native" also clmul.  "python" unloads the kernel, as on a host
    without a compiler.  "vpclmul-split" and "clmul-split" are those paths
    with the two-thread floor lowered to TEST_SPLIT_BYTES.  Each path keeps
    one table cache for the whole test run, so the combine constants of an
    entry are built once.
    """
    if path != "python" and fastcrc._kernel is None:
        pytest.skip("the C kernel is not loaded here (no working C compiler)")
    if path == "python":
        monkeypatch.setattr(fastcrc, "_kernel", None)
    else:
        if path.endswith("-split"):
            path = path.removesuffix("-split")
            monkeypatch.setattr(fastcrc, "_SPLIT_BYTES", TEST_SPLIT_BYTES)
        if getattr(fastcrc._kernel, path) is None:
            pytest.skip(f"this CPU cannot run the {path} kernel")
        for faster in KERNEL_PATHS[:KERNEL_PATHS.index(path)]:
            monkeypatch.setattr(fastcrc._kernel, faster, None)
    monkeypatch.setattr(fastcrc, "_table_cache", _path_tables.setdefault(path, {}))


@pytest.fixture(params=["vpclmul", "vpclmul-split", "clmul", "clmul-split", "native", "python"])
def path(request, monkeypatch):
    """Run the test through both carry-less kernels, each also split across two
    threads from 1 KiB, the table kernel and the Python loop."""
    use_path(monkeypatch, request.param)
    return request.param


def first_carryless_path(monkeypatch) -> str:
    """Force the fastest carry-less path this host runs, or skip."""
    loaded = [p for p in CARRYLESS_PATHS
              if fastcrc._kernel is not None and getattr(fastcrc._kernel, p) is not None]
    if not loaded:
        pytest.skip("no carry-less kernel is loaded here")
    use_path(monkeypatch, loaded[0])
    return loaded[0]


def spy(monkeypatch, name: str, record) -> None:
    """Make every engine built from here on call record(real, args) where it would call its
    tables' `name` callable, real, with args: the engine reaches the spy however its tables
    were built and cached."""
    tables_for = fastcrc._tables_for

    def spied(e):
        tables = tables_for(e)
        real = getattr(tables, name)
        return dataclasses.replace(tables, **{name: lambda *args: record(real, args)})

    monkeypatch.setattr(fastcrc, "_tables_for", spied)


def record_splits(monkeypatch) -> list[int]:
    """Spy on the two-thread entry; the list collects what each call returns:
    1 if the worker thread absorbed its part, 0 if the calling thread did all."""
    taken: list[int] = []
    spy(monkeypatch, "split", lambda split, args: taken.append(split(*args)))
    return taken


def unsplit(monkeypatch, e, m: bytes, chunk: int | None = None) -> bytes:
    """The digest of m on one thread, absorbed in pieces of chunk bytes (default: whole)."""
    with monkeypatch.context() as mp:
        mp.setattr(fastcrc, "_SPLIT_BYTES", sys.maxsize)
        return stream(e, m, chunk)


def stream(e, m: bytes, chunk: int | None = None) -> bytes:
    eng = engine_init(e)
    step = chunk or max(len(m), 1)
    for i in range(0, len(m), step):
        eng.absorb(m[i:i + step])
    return eng.finish().data


_references: dict[tuple[int, bytes], bytes] = {}


def reference(e, m: bytes) -> bytes:
    """classifier.classify(m, e).data, once per session: the path variants share their messages."""
    key = (e.index, m)
    if key not in _references:
        _references[key] = classifier.classify(m, e).data
    return _references[key]


def row_forms(e):
    """e's tables as the table kernel builds them, then as the Python loop builds them."""
    forms = []
    for path in ("python",) if fastcrc._kernel is None else ("native", "python"):
        with pytest.MonkeyPatch.context() as mp:
            use_path(mp, path)
            forms.append(build_tables(e))
    return forms


def value(t, words) -> int:
    """The value held in words laid out like t's register: t's digest of them."""
    return int.from_bytes(t.digest(words, t.degree), "big")


def row(t, v: int) -> int:
    """Row v of a "python" or "native" table: the register one cycle takes from zero with
    codeword v, which every byte maps to."""
    reg = bytearray(8 * t.words)
    t.loop(reg, t.main, array("H", [v]) * 256, b"\0")
    return value(t, reg)


class TestTables:
    def test_row_zero_is_zero(self):
        for e in params.registry()[:5]:
            for t in row_forms(e):
                assert row(t, 0) == 0

    def test_rows_match_remainder_oracle(self):
        # degree 63 fits one word; degree 1740 spans 28 words, 52 bits of padding
        rng = random.Random(30)
        rows = [0, 1, 2, 3, 256, 511] + [rng.randrange(512) for _ in range(20)]
        for bits in (64, 1744):
            e = params.entry_for_aligned_bits(bits)
            for t in row_forms(e):
                for v in rows:
                    expected = gf2poly.remainder(
                        gf2poly.BitPolynomial(v << e.degree), e.generator)
                    assert row(t, v) == expected.value, (bits, t.path, v)

    def test_barrett_constants_reduce_a_word(self):
        # t * x^d mod g == low d bits of q * (g - x^d), q = t ^ (t * mu >> 64)
        poly = gf2poly.BitPolynomial
        rng = random.Random(36)
        for e in params.registry():
            mu, low = fastcrc._barrett_constants(e)
            assert mu < 1 << 64
            assert low == e.generator.value ^ 1 << e.degree
            for t in [1, (1 << 64) - 1] + [rng.getrandbits(64) for _ in range(8)]:
                q = t ^ gf2poly.multiply(poly(t), poly(mu)).value >> 64
                product = gf2poly.multiply(poly(q), poly(low)).value
                want = gf2poly.remainder(poly(t << e.degree), e.generator).value
                assert product & ((1 << e.degree) - 1) == want, (e.index, t)

    def test_clmul_tables_pack_the_constants(self, monkeypatch):
        # w, mu, seven zero words, then G = (g - x^d) * x^pad least significant word first,
        # zero-padded to whole blocks of eight words: the kernels' shifted loads read the
        # zeros.  The module's tail follows, which holds mu'.  Where the CPU runs both
        # carry-less kernels, they read the same table
        tables = {}
        for kernel in CARRYLESS_PATHS:
            if fastcrc._kernel is None or getattr(fastcrc._kernel, kernel) is None:
                continue
            with pytest.MonkeyPatch.context() as mp:
                use_path(mp, kernel)
                tables[kernel] = [build_tables(e) for e in params.registry()]
            for e, t in zip(params.registry(), tables[kernel]):
                w = t.words
                at = 9 + 8 * ((w + 7) // 8)  # the tail
                mu, low = fastcrc._barrett_constants(e)
                assert t.path == kernel and t.main[:2].tolist() == [w, mu]
                assert t.main[2:9].tolist() == [0] * 7
                assert t.main[9 + w:at].tolist() == [0] * (at - 9 - w)
                g = int.from_bytes(bytes(memoryview(t.main)[9:9 + w]), sys.byteorder)
                assert g == low << 64 * w - e.degree, e.index
                assert len(t.main) == at + fastcrc._kernel.module.TAIL_WORDS, e.index
        if len(tables) == 2:
            assert [t.main for t in tables["clmul"]] == [t.main for t in tables["vpclmul"]]

    @pytest.mark.parametrize("kernel", CARRYLESS_PATHS)
    def test_combine_constants_match_gf2poly(self, monkeypatch, kernel):
        # K_j = x^(9 * 2^j - 2pad - d) mod g: K_j * x^(2pad + d) = x^(9 * 2^j) mod g, deg K_j < d;
        # j0 is reduced once, the rest are squared by the kernel's combine step; a split's
        # second part has TEST_SPLIT_BYTES // 2 bytes or more, so its exponent is never negative
        use_path(monkeypatch, kernel)
        poly = gf2poly.BitPolynomial
        for e in params.registry():
            t = build_tables(e)
            pad = 64 * t.words - e.degree
            j0 = next(j for j in range(64) if 9 << j >= 2 * pad + e.degree)
            assert 9 * (TEST_SPLIT_BYTES // 2) > 2 * pad + e.degree, e.index
            power = gf2poly.remainder(poly(1 << 9), e.generator)  # x^(9 * 2^j) mod g
            for j in range(16):
                if j in (j0, j0 + 1, 14, 15):
                    k = value(t, fastcrc._shift(e, t, j))
                    assert k >> e.degree == 0, (e.index, j)
                    moved = gf2poly.remainder(poly(k << 2 * pad + e.degree), e.generator)
                    assert moved == power, (e.index, j)
                power = gf2poly.remainder(gf2poly.multiply(power, power), e.generator)

    def test_block_constants_match_gf2poly(self, monkeypatch):
        # the tail holds seven zero words, then mu' = floor(x^(d + 64B) / g) - x^(64B) one
        # word up, zeros after it: (mu' + x^(64B)) * g + x^(d + 64B) mod g == x^(d + 64B).
        # The block step: for T of B words, Q = low w words of T ^ (T * mu' >> 64B) and the
        # low w words of Q * G are T * x^(64w) mod g * x^pad
        first_carryless_path(monkeypatch)
        poly = gf2poly.BitPolynomial
        b = 9 * BLOCK_BYTES // 64
        for kernel in CARRYLESS_PATHS:
            if getattr(fastcrc._kernel, kernel) is None:
                continue
            rng = random.Random(42)
            with pytest.MonkeyPatch.context() as mp:
                use_path(mp, kernel)
                tables = [build_tables(e) for e in params.registry()]
            for e, t in zip(params.registry(), tables):
                w = t.words
                at = 9 + 8 * ((w + 7) // 8)  # the tail
                assert not any(t.main[at:at + 8]) and not any(t.main[at + 8 + b:]), e.index
                mu = int.from_bytes(bytes(memoryview(t.main)[at + 8:at + 8 + b]), sys.byteorder)
                pad, low_w = 64 * w - e.degree, (1 << 64 * w) - 1
                assert 2 * w <= b, e.index
                power = poly(1 << e.degree + 64 * b)
                product = gf2poly.multiply(poly(mu ^ 1 << 64 * b), e.generator)
                assert product ^ gf2poly.remainder(power, e.generator) == power, e.index
                g = fastcrc._barrett_constants(e)[1] << pad
                for m in [(1 << 64 * b) - 1] + [rng.getrandbits(64 * b) for _ in range(2)]:
                    q = (m ^ gf2poly.multiply(poly(m), poly(mu)).value >> 64 * b) & low_w
                    want = gf2poly.remainder(poly(m << 64 * w), poly(e.generator.value << pad))
                    assert gf2poly.multiply(poly(q), poly(g)).value & low_w == want.value, \
                        (kernel, e.index)

    def test_large_absorbs_split_where_two_cpus_run(self, monkeypatch):
        # a worker that never starts or a guard that is never free falls back to one
        # thread with the right digest; only the entry's result shows it
        first_carryless_path(monkeypatch)
        cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count())
        if len(cpus) < 2:
            pytest.skip("this process may run on one CPU only")
        assert fastcrc._SPLIT_BYTES == 16 * 1024
        m = random.Random(38).randbytes(64 * 1024)
        entries = [params.entry_for_aligned_bits(b) for b in (64, 1744, 4288)]
        for kernel in CARRYLESS_PATHS:
            if getattr(fastcrc._kernel, kernel) is None:
                continue
            with pytest.MonkeyPatch.context() as mp:
                use_path(mp, kernel)
                want = [unsplit(mp, e, m) for e in entries]
                taken = record_splits(mp)
                deadline = time.monotonic() + WORKER_PATIENCE_S
                while 1 not in taken and time.monotonic() < deadline:
                    assert [engine_init(e).absorb(m).finish().data for e in entries] == want
                assert 1 in taken, kernel

    def test_kernel_loads_where_a_compiler_runs(self):
        if shutil.which("cc") is None:
            pytest.skip("no cc on PATH")
        assert fastcrc._kernel is not None
        path = engine_init(params.entry_for_aligned_bits(64)).path
        cpuinfo = Path("/proc/cpuinfo")
        if not cpuinfo.is_file():
            assert path in KERNEL_PATHS
        else:
            flags = set(cpuinfo.read_text().split())
            assert path == ("vpclmul" if {"avx512f", "vpclmulqdq"} <= flags
                            else "clmul" if "pclmulqdq" in flags else "native")


class TestEngine:
    def test_init_state(self):
        e = params.entry_for_aligned_bits(64)
        eng = engine_init(e)
        assert eng.register == 0
        assert eng.consumed == 0

    def test_shared_tables(self):
        e = params.entry_for_aligned_bits(128)
        assert engine_init(e).tables is engine_init(e).tables

    def test_init_all_entries(self):
        for e in params.registry():
            assert engine_init(e).register == 0

    def test_empty_input_equals_reference(self):
        for e in params.registry()[:4]:
            assert engine_init(e).finish().data == classifier.classify(b"", e).data

    def test_fox_chunked(self):
        e = params.entry_for_aligned_bits(64)
        eng = engine_init(e)
        eng.absorb(b"The qu").absorb(b"ick brown fox jumps over the lazy dog")
        assert eng.finish().hex() == "4A0B6AAA2BA80913"

    def test_small_message_vectors(self):
        assert engine_init(params.entry_for_aligned_bits(64)) \
            .absorb(b"A").finish().hex() == "177EB92F319B46C1"
        got = engine_init(params.entry_for_aligned_bits(320)) \
            .absorb(b"ABCDEFGH").finish().hex()
        assert got.startswith("6ADD0F97")
        assert got.endswith("30B75303")

    def test_empty_chunk_identity(self):
        e = params.entry_for_aligned_bits(64)
        eng = engine_init(e).absorb(b"abc")
        reg = eng.register
        eng.absorb(b"")
        assert eng.register == reg

    def test_byte_at_a_time(self):
        e = params.entry_for_aligned_bits(256)
        rng = random.Random(31)
        m = bytes(rng.randrange(256) for _ in range(50))
        eng = engine_init(e)
        for b in m:
            eng.absorb(bytes([b]))
        assert eng.finish().data == engine_init(e).absorb(m).finish().data

    def test_single_use(self):
        e = params.entry_for_aligned_bits(64)
        eng = engine_init(e)
        eng.finish()
        with pytest.raises(RuntimeError):
            eng.absorb(b"x")
        with pytest.raises(RuntimeError):
            eng.finish()


class TestEquivalence:
    def test_matches_reference_across_entries(self):
        rng = random.Random(32)
        for e in params.registry():
            for n in (0, 1, 7, 8, 9, 40):
                m = bytes(rng.randrange(256) for _ in range(n))
                assert engine_init(e).absorb(m).finish().data == \
                    classifier.classify(m, e).data, (e.index, n)

    def test_register_is_digest_before_finish(self):
        # direct form: once the filler rule no longer applies, the register
        # already holds expand(m) * x^d mod g
        rng = random.Random(34)
        for e in params.registry():
            for n in (8, 9, 40):
                m = bytes(rng.randrange(256) for _ in range(n))
                assert engine_init(e).absorb(m).register == int.from_bytes(
                    classifier.classify(m, e).data, "big"), (e.index, n)

    def test_chunking_invariance(self):
        rng = random.Random(33)
        e = params.entry_for_aligned_bits(416)
        for _ in range(20):
            m = bytes(rng.randrange(256) for _ in range(rng.randrange(200)))
            eng = engine_init(e)
            pos = 0
            while pos < len(m):
                step = rng.randrange(1, len(m) - pos + 1)
                eng.absorb(m[pos:pos + step])
                pos += step
            assert eng.finish().data == engine_init(e).absorb(m).finish().data


class TestPaths:
    def test_matches_reference_with_random_splits(self, path):
        rng = random.Random(35)
        edges = [BLOCK_BYTES - 1, BLOCK_BYTES, BLOCK_BYTES + 1]
        for e in params.registry():
            # 64 B is exactly nine 64-bit words of codewords, no tail bits; from 1 KiB
            # the -split variants and from 16 KiB every carry-less path split a chunk;
            # vpclmul takes the block step from one block, 1 KiB
            for n in dict.fromkeys([*range(18), 63, 64, 65, 71, 72, 73, 100, 128, 1000, *edges,
                                    2047, 2048, 3072, 16383, 16384, 16385, 65536]):
                m = rng.randbytes(n)
                want = reference(e, m)
                eng = engine_init(e)
                assert eng.path == path.partition("-")[0]
                pos = 0
                while pos < n:
                    step = rng.randrange(1, n - pos + 1)
                    eng.absorb(m[pos:pos + step])
                    pos += step
                if n >= 8:
                    assert eng.register == int.from_bytes(want, "big"), (e.index, n)
                assert eng.finish().data == want, (e.index, n)
                if n in edges:  # and in one call, at the block edges
                    assert engine_init(e).absorb(m).finish().data == want, (e.index, n)

    def test_accepts_any_bytes_like_chunk(self, path, monkeypatch):
        # a chunk is absorbed as its raw bytes, whatever its item size, and a contiguous one
        # reaches the path's loop as it is, not copied, on every path; a non-buffer is
        # refused before the register or the byte count moves
        e = params.entry_for_aligned_bits(64)
        received = []
        spy(monkeypatch, "loop", lambda loop, args: received.append(args[3]) or loop(*args))
        words, halves = array("Q", [0x0102030405060708]), array("I", FOX[:40])
        for chunk, m in ((bytearray(FOX), FOX), (memoryview(FOX), FOX), (words, words.tobytes()),
                         (halves, FOX[:40]), (memoryview(FOX)[::2], FOX[::2])):
            received.clear()
            eng = engine_init(e).absorb(chunk)
            assert eng.consumed == len(m)
            assert eng.finish().data == reference(e, m)
            contiguous = memoryview(chunk).c_contiguous
            assert received and (received[0] is chunk) == contiguous, (path, type(chunk))
        eng = engine_init(e).absorb(b"abc")
        with pytest.raises(TypeError):
            eng.absorb(5)
        assert (eng.register, eng.consumed) == (engine_init(e).absorb(b"abc").register, 3)

    def test_repr_names_entry_bytes_and_path(self, path):
        eng = engine_init(params.entry_for_aligned_bits(1744)).absorb(FOX)
        assert repr(eng) == \
            f"<CrcEngine entry=17 bits=1744 consumed=43 path={path.partition('-')[0]}>"


class TestThreads:
    def test_concurrent_streams_match_sequential(self, monkeypatch):
        # four streams on a 2-CPU host: callers that find the worker busy run the plain loop
        first_carryless_path(monkeypatch)
        entries = [params.entry_for_aligned_bits(b) for b in (64, 1744, 2784, 4288)]
        rng = random.Random(39)
        messages = [rng.randbytes(1 << 20) for _ in entries]
        want = [unsplit(monkeypatch, e, m, 64 * 1024) for e, m in zip(entries, messages)]
        monkeypatch.setattr(fastcrc, "_SPLIT_BYTES", 16 * 1024)
        taken = record_splits(monkeypatch)
        got = [None] * len(entries)
        start = threading.Barrier(len(entries))

        def run(i):
            start.wait(timeout=60)
            got[i] = stream(entries[i], messages[i], 64 * 1024)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(entries))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == want
        assert len(taken) == 16 * len(entries) and set(taken) <= {0, 1} and 1 in taken

    def test_forked_child_starts_its_own_worker(self, monkeypatch):
        first_carryless_path(monkeypatch)
        monkeypatch.setattr(fastcrc, "_SPLIT_BYTES", 16 * 1024)
        e = params.entry_for_aligned_bits(1744)
        m = random.Random(40).randbytes(64 * 1024)
        want = unsplit(monkeypatch, e, m)
        taken = record_splits(monkeypatch)

        def until_the_worker_splits():
            digests, deadline = [], time.monotonic() + WORKER_PATIENCE_S
            while 1 not in taken and time.monotonic() < deadline:
                digests.append(engine_init(e).absorb(m).finish().data)
            return digests

        assert set(until_the_worker_splits()) == {want}
        assert 1 in taken  # the worker runs in this process now
        context = multiprocessing.get_context("fork")
        reader, writer = context.Pipe(duplex=False)

        def child():
            taken.clear()
            writer.send((until_the_worker_splits(), taken))

        process = context.Process(target=child)
        process.start()
        try:
            assert reader.poll(60), "no answer from the child: a deadlock"
            digests, child_taken = reader.recv()
        finally:
            process.join(timeout=60)
            if process.is_alive():
                process.kill()
        assert not process.is_alive() and process.exitcode == 0
        assert set(digests) == {want}
        assert 1 in child_taken  # the child's own worker ran

    def test_one_cpu_takes_no_split(self, monkeypatch):
        first_carryless_path(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(fastcrc, "_SPLIT_BYTES", fastcrc._split_bytes())
        taken = record_splits(monkeypatch)
        e = params.entry_for_aligned_bits(1744)
        m = random.Random(41).randbytes(64 * 1024)
        want = unsplit(monkeypatch, e, m)
        assert engine_init(e).absorb(m).finish().data == want
        assert taken == []
        # the control: from the two-CPU floor, the same spy sees the split
        monkeypatch.setattr(fastcrc, "_SPLIT_BYTES", 16 * 1024)
        assert engine_init(e).absorb(m).finish().data == want
        assert len(taken) == 1

    @pytest.mark.parametrize("kernel", KERNEL_PATHS)
    def test_large_absorb_releases_the_gil(self, monkeypatch, kernel):
        # a Python loop on a second thread stamps the time while the first is inside one
        # 4 MiB absorb.  A switch interval longer than the test keeps the GIL with the
        # absorbing thread unless the call itself gives it up, and the loop sleeps between
        # stamps, so two stamps inside one call show it did
        if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) < 2:
            pytest.skip("this process may run on one CPU only")
        use_path(monkeypatch, kernel)
        monkeypatch.setattr(fastcrc, "_SPLIT_BYTES", sys.maxsize)  # leave a CPU to the loop
        e = params.entry_for_aligned_bits(1744)
        m = random.Random(46).randbytes(4 << 20)
        stamps, done, calls = [], threading.Event(), []

        def stamp():
            while not done.is_set():
                stamps.append(time.monotonic())
                time.sleep(1e-4)

        def inside():
            return max((sum(start < t < end for t in stamps) for start, end in calls), default=0)

        thread = threading.Thread(target=stamp)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(10 * WORKER_PATIENCE_S)
        try:
            thread.start()
            deadline = time.monotonic() + WORKER_PATIENCE_S
            while inside() < 2 and time.monotonic() < deadline:
                start = time.monotonic()
                engine_init(e).absorb(m)
                calls.append((start, time.monotonic()))
        finally:
            done.set()
            thread.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert inside() >= 2, kernel


@pytest.fixture(params=["vpclmul", "vpclmul-split", "clmul", "clmul-split", "native"])
def kernel_path(request, monkeypatch):
    """The path fixture's variants that call the extension module."""
    use_path(monkeypatch, request.param)
    return request.param


class TestBinding:
    @pytest.mark.parametrize("case", ["short register", "long register", "read-only register",
                                      "short table", "non-buffer chunk"])
    def test_bad_input_raises_before_any_write(self, kernel_path, case):
        # the module checks every buffer before it writes a word: a register too short for
        # the table's word count sits between guard words that must stay zero; 5,000 bytes
        # take the block step on vpclmul and the split entry on the -split variants
        e = params.entry_for_aligned_bits(1744)
        w = (e.degree + 63) // 64
        for chunk in (FOX, random.Random(45).randbytes(5000)):
            eng = engine_init(e).absorb(b"abc")
            want = eng.register
            guarded, error = bytearray(8 * (w + 3)), ValueError
            if case == "short register":
                eng._reg = memoryview(guarded)[8:8 * w]
            elif case == "long register":
                eng._reg = memoryview(guarded)[8:8 * (w + 2)]
            elif case == "read-only register":
                eng._reg, error = bytes(8 * w), TypeError
            elif case == "short table":
                eng.tables = dataclasses.replace(eng.tables, main=eng.tables.main[:-1])
            else:
                chunk, error = 5, TypeError
            with pytest.raises(error):
                eng.absorb(chunk)
            assert eng.consumed == 3 and guarded == bytearray(len(guarded)), case
            if case in ("short table", "non-buffer chunk"):
                assert eng.register == want, case

    def test_each_argument_is_checked(self, kernel_path):
        # direct calls: each wrong argument raises, and neither the register nor the guard
        # words around it are written
        path = kernel_path.partition("-")[0]
        module = fastcrc._kernel.module
        e = params.entry_for_aligned_bits(1744)
        t = build_tables(e)
        w, cw, loop = t.words, fastcrc._codewords(), t.loop
        guarded = bytearray(8 * (w + 2))
        reg = memoryview(guarded)[8:8 + 8 * w]
        loop(reg, t.main, cw, FOX)
        want = bytes(guarded)
        misaligned = memoryview(bytearray(8 * w + 8))[1:1 + 8 * w]
        claims_more = array("Q", t.main)
        claims_more[0] = w + 8
        # a 73-word register and a table long enough for it: one word past the bound of
        # B / 2 = 72 that every call checks
        wide = 73
        guarded_wide = bytearray(8 * (wide + 2))
        wide_reg = memoryview(guarded_wide)[8:8 + 8 * wide]
        too_wide = array("Q", bytes(8 * (1 + 512 * wide if path == "native" else
                                         9 + 8 * ((wide + 7) // 8) + module.TAIL_WORDS)))
        too_wide[0] = wide
        calls = [
            (TypeError, loop, (reg, t.main, cw)),
            (TypeError, loop, (reg, t.main, cw, 5)),
            (TypeError, loop, (reg, 5, cw, FOX)),
            (TypeError, loop, (reg, t.main, memoryview(cw)[::2], FOX)),
            (ValueError, loop, (misaligned, t.main, cw, FOX)),
            (ValueError, loop, (reg, claims_more, cw, FOX)),
            (ValueError, loop, (reg, t.main, cw[:255], FOX)),
            (ValueError, loop, (reg, t.main, cw, reg)),  # reg overlaps the data
            (ValueError, loop, (wide_reg, too_wide, cw, FOX)),
            (ValueError, t.digest, (reg, 64 * w + 1)),
            (ValueError, t.digest, (wide_reg, 64 * wide)),
            (ValueError, module.fill, (array("Q", [w]) * (512 * w),)),
            (TypeError, module.fill, (bytes(8 * (1 + 512 * w)),)),
        ]
        bad_tables = []
        if path != "native":  # a table cut after G
            bad_tables.append(t.main[:9 + 8 * ((w + 7) // 8)])
            calls += [(ValueError, module.fill_carryless, (bad,)) for bad in bad_tables]
            calls.append((TypeError, module.fill_carryless, (t.main.tobytes(),)))
        fill = module.fill if path == "native" else module.fill_carryless
        calls.append((ValueError, fill, (too_wide,)))
        calls += [(ValueError, loop, (reg, bad, cw, FOX)) for bad in bad_tables]
        if t.split is not None:
            split, combine = t.split, t.combine
            k, zero = fastcrc._shift(e, t, 10), bytes(8 * w)
            n = 3 * 1024
            calls += [
                (ValueError, split, (reg, t.main, cw, bytes(n), n + 1, k)),
                (ValueError, split, (reg, t.main, cw, bytes(n), 1024, k[:-1])),
                (ValueError, combine, (reg, t.main, k, zero[:-8])),
                (ValueError, combine, (reg, t.main, reg, zero)),  # reg is also k
            ]
            calls += [(ValueError, split, (reg, bad, cw, bytes(n), 1024, k)) for bad in bad_tables]
            calls += [(ValueError, combine, (reg, bad, k, zero)) for bad in bad_tables]
        for error, function, args in calls:
            with pytest.raises(error):
                function(*args)
            assert guarded == want, (function.__name__, args[1:])
            assert not any(guarded_wide), (function.__name__, args[1:])


class TestKernelBuild:
    @pytest.mark.parametrize("case", ["missing compiler", "compile error", "unwritable cache",
                                      "missing Python.h"])
    def test_failed_build_gives_python_path(self, monkeypatch, tmp_path, case):
        cache, cc, include = tmp_path / "cache", "cc", PYTHON_INCLUDE
        if case == "missing compiler":
            cc = str(tmp_path / "no-such-cc")
        elif case == "compile error":
            cc = "false"  # runs, writes nothing and exits 1
        elif case == "unwritable cache":
            (tmp_path / "file").write_bytes(b"")
            cache = tmp_path / "file" / "cache"
        else:  # a compiler, but no Python.h where the module looks for it
            include = str(tmp_path / "no-include")
        kernel = fastcrc._load_kernel(cache, cc, include)
        assert kernel is None
        assert not cache.is_dir() or not any(cache.iterdir())  # no temporary file left
        entries = [params.entry_for_aligned_bits(b) for b in (64, 1744, 4288)]
        loaded = [engine_init(e).absorb(FOX).finish().data for e in entries]
        monkeypatch.setattr(fastcrc, "_kernel", kernel)
        monkeypatch.setattr(fastcrc, "_table_cache", {})
        for e, want in zip(entries, loaded):
            eng = engine_init(e)
            assert eng.path == "python"
            assert eng.absorb(FOX).finish().data == want

    def test_cache_round_trip(self, monkeypatch, tmp_path):
        if shutil.which("cc") is None:
            pytest.skip("no cc on PATH")
        cache = tmp_path / "cache"
        assert fastcrc._load_kernel(cache) is not None
        (built,) = cache.iterdir()
        assert built.name.startswith("_absorb-") and built.suffix == ".so"

        def no_compile(*args):
            raise AssertionError("a cached kernel was compiled again")

        monkeypatch.setattr(fastcrc, "_compile", no_compile)
        assert fastcrc._load_kernel(cache) is not None
        # a damaged file under the same name in a directory never loaded from:
        # the import fails, and the loader falls back instead of raising
        damaged = tmp_path / "damaged"
        damaged.mkdir()
        (damaged / built.name).write_bytes(b"not a shared object")
        assert fastcrc._load_kernel(damaged) is None

    def test_sanitized_build_matches_vectors(self, tmp_path):
        # warnings are errors, and any undefined behaviour (a shift by 64, an
        # out-of-range index) aborts the child
        if shutil.which("cc") is None:
            pytest.skip("no cc on PATH")
        lib = tmp_path / "_absorb-ubsan.so"
        build = subprocess.run(
            ["cc", "-O1", "-g", "-shared", "-fPIC", "-pthread", "-Wall", "-Wextra", "-Werror",
             "-fsanitize=undefined", "-fno-sanitize-recover=all", "-I", PYTHON_INCLUDE,
             "-o", str(lib), str(fastcrc._SOURCES[0])], capture_output=True, text=True)
        assert build.returncode == 0, build.stderr
        run = subprocess.run([sys.executable, "-c", SANITIZED_SWEEP, str(lib)],
                             capture_output=True, text=True, timeout=600,
                             env={**os.environ, "PYTHONPATH": str(Path(fastcrc.__file__).parents[1])})
        assert run.returncode == 0, run.stderr
        paths = [p for p in KERNEL_PATHS if getattr(fastcrc._kernel, p) is not None]
        # the three c2 suites, the sweep, then the register-width and the one-block edges
        per_path = 52 + 30 * 26 + 7 * 81 + 7 * 3
        splits = (30 * 5 + 1) * len([p for p in paths if p in CARRYLESS_PATHS])
        assert run.stdout.split() == [*paths, str(per_path * len(paths) + splits)]

    def test_thread_sanitizer_finds_no_race(self, monkeypatch, tmp_path):
        # CPython does not run under an LD_PRELOADed libtsan, so a C program
        # includes the kernel source and calls the split entry from two threads
        kernel = first_carryless_path(monkeypatch)
        # every part of 1 KiB (one block) or more takes the block step on vpclmul; in the
        # last case the worker's part is under one block
        cases = []
        for bits, n, n2 in ((64, 20000, 8192), (1744, 40000, 16384), (4288, 16384, 8192),
                            (2784, 30000, 8192), (416, 3000, 1024)):
            table, k = kernel_constants(params.entry_for_aligned_bits(bits), n2)
            cases.append("{%d, %d, %s, %s}" % (n, n2, c_words(table), c_words(k)))
        run = sanitized_program(tmp_path, "thread", TSAN_PROGRAM % {
            "kernel": kernel, "codewords": c_words(fastcrc._codewords()),
            "cases": ",\n    ".join(cases)})
        mismatches, split, plain = map(int, run.stdout.split())
        assert mismatches == 0 and split > 0 and split + plain == 2 * len(cases) * 40

    def test_address_sanitizer_finds_no_overread(self, monkeypatch, tmp_path):
        # the kernels load whole blocks of eight words, up to seven words below each
        # constant and past its last word; a C program copies each table, constant, message
        # and register into buffers of exactly their size, so any such load past what
        # fastcrc builds is a heap-buffer-overflow
        first_carryless_path(monkeypatch)
        m = random.Random(44).randbytes(ASAN_LENGTHS[-1])
        cases = []
        for bits in (64, 416, 512, 608, 1744, 2784, 4288):
            e = params.entry_for_aligned_bits(bits)
            table, k = kernel_constants(e, ASAN_SPLIT_PART)
            pad = 64 * table[0] - e.degree
            want = [fastcrc._to_words(int.from_bytes(reference(e, m[:n]), "big") << pad,
                                      table[0]) for n in ASAN_LENGTHS]
            cases.append("{%d, %s, %s, {%s}}" % (len(table), c_words(table), c_words(k),
                                                 ", ".join(map(c_words, want))))
        run = sanitized_program(tmp_path, "address", ASAN_PROGRAM % {
            "codewords": c_words(fastcrc._codewords()), "message": c_words(m),
            "lengths": ", ".join(map(str, ASAN_LENGTHS)), "part": ASAN_SPLIT_PART,
            "cases": ",\n    ".join(cases)})
        mismatches, runs = map(int, run.stdout.split())
        assert mismatches == 0 and runs == 3 * len(cases) * fastcrc._kernel.module.carryless()

    def test_avx512_stays_in_the_vpclmul_kernel(self, tmp_path):
        # a CPU with PCLMULQDQ but not AVX-512 runs every function but the vpclmul
        # kernels, the module's wrappers included, so no AVX-512 instruction may reach
        # them, even through a helper the compiler inlined or cloned; and the table loops
        # run on any x86-64 CPU.  The module is built as the loader builds it.
        if os.uname().machine != "x86_64":
            pytest.skip("the carry-less kernels are compiled on x86-64 only")
        if shutil.which("cc") is None or shutil.which("objdump") is None:
            pytest.skip("needs cc and objdump on PATH")
        lib = tmp_path / "_absorb.so"
        assert fastcrc._compile(["cc", *fastcrc._COMPILE, "-I", PYTHON_INCLUDE], lib)
        listing = subprocess.run(["objdump", "-d", str(lib)], capture_output=True, text=True,
                                 check=True).stdout
        functions = disassembly(listing)
        for name in ("absorb_vpclmul", "block_step_vpclmul"):
            assert any(avx512(i) for i in functions[name]), name  # the check sees AVX-512
        for name in ("PyInit__absorb", "py_absorb_vpclmul", "py_absorb_split_vpclmul",
                     "fill_carryless", "py_fill_carryless"):
            assert name in functions, name  # the check sees them
        for name, instructions in functions.items():
            if "vpclmul" not in name or name.startswith("py_"):
                assert not [i for i in instructions if avx512(i)], name
        for name in ("absorb", "fill"):
            assert not [i for i in functions[name] if "pclmul" in i[1]], name


def kernel_constants(e, n2: int):
    """e's carry-less table and K_j for a second part of n2 = 2^j bytes, as fastcrc builds
    them for the kernels."""
    t = build_tables(e)
    return t.main, fastcrc._shift(e, t, n2.bit_length() - 1)


def c_words(words) -> str:
    """A C initializer for an array of integers."""
    return "{%s}" % ", ".join(map(hex, words))


def sanitized_program(tmp_path, sanitizer: str, source: str) -> subprocess.CompletedProcess:
    """Build a C program that includes the kernel source under -fsanitize=sanitizer and
    run it; skip where that sanitizer does not build or run here."""
    probe = tmp_path / "probe.c"
    probe.write_text("int main(void) { return 0; }\n")
    built = subprocess.run(["cc", f"-fsanitize={sanitizer}", "-o", str(tmp_path / "probe"),
                            str(probe)], capture_output=True)
    if built.returncode or subprocess.run([str(tmp_path / "probe")]).returncode:
        pytest.skip(f"no working -fsanitize={sanitizer} here")
    (tmp_path / "program.c").write_text(source)
    program = tmp_path / "program"
    build = subprocess.run(
        ["cc", "-O1", "-g", f"-fsanitize={sanitizer}", "-pthread", "-Wall", "-Wextra", "-Werror",
         "-I", str(fastcrc._PACKAGE), "-o", str(program), str(tmp_path / "program.c")],
        capture_output=True, text=True)
    assert build.returncode == 0, build.stderr
    run = subprocess.run([str(program)], capture_output=True, text=True, timeout=600)
    assert "Sanitizer" not in run.stderr, run.stderr
    assert run.returncode == 0, run.stdout + run.stderr
    return run


def disassembly(listing: str) -> dict[str, list[tuple[bytes, str]]]:
    """Each function of an objdump -d listing: its instructions as (encoding, text)."""
    functions: dict[str, list[tuple[bytes, str]]] = {}
    for line in listing.splitlines():
        if header := re.fullmatch(r"[0-9a-f]+ <(.+)>:", line):
            instructions = functions.setdefault(header[1], [])
        elif (insn := re.fullmatch(r"\s*[0-9a-f]+:\t((?:[0-9a-f]{2} )+)\s*\t(.*)", line)) \
                and functions:
            instructions.append((bytes.fromhex(insn[1]), insn[2]))
    return functions


LEGACY_PREFIXES = frozenset(b"\x26\x2e\x36\x3e\x64\x65\x66\x67\xf0\xf2\xf3")
AVX512_REGISTERS = re.compile(r"%zmm|%[xy]mm(?:1[6-9]|2[0-9]|3[01])\b|%k[0-7]\b")


def avx512(instruction: tuple[bytes, str]) -> bool:
    """Whether an x86-64 instruction needs AVX-512: EVEX-encoded (0x62 after any
    legacy prefixes, which in 64-bit mode is nothing else) or using a register
    only AVX-512 has."""
    encoding, text = instruction
    opcode = next((b for b in encoding if b not in LEGACY_PREFIXES), None)
    return opcode == 0x62 or bool(AVX512_REGISTERS.search(text))


# Run in a child process against a sanitizer build of the kernel, so that
# undefined behaviour aborts the child instead of the test run.
SANITIZED_SWEEP = """
import dataclasses, random, sys, time
from badderlocks import classifier, cli, fastcrc, params
fastcrc._kernel = fastcrc._Kernel(sys.argv[1])
paths = [p for p in ("vpclmul", "clmul", "native") if getattr(fastcrc._kernel, p) is not None]
# entries whose register ends at or just past a whole block of eight 64-bit words, or
# fills less than one (w = 1, 7, 8, 10, 28, 44, 67; no entry has w = 9)
block_edges = [params.entry_for_aligned_bits(b) for b in (64, 416, 512, 608, 1744, 2784, 4288)]
rng = random.Random(37)
checked = 0
for i, path in enumerate(paths):
    if i:
        setattr(fastcrc._kernel, paths[i - 1], None)  # so build_tables picks the next path
    fastcrc._table_cache.clear()
    for suite in ("c2-fox", "c2-small", "c2-mixed"):
        for bits, m, want in cli._load_suite(suite):
            eng = fastcrc.engine_init(params.entry_for_aligned_bits(bits))
            assert eng.path == path and eng.absorb(m).finish().hex() == want, (suite, bits, m)
            checked += 1
    for e in params.registry():
        for n in [*range(18), 63, 64, 65, 71, 72, 73, 128, 1000]:
            m = rng.randbytes(n)
            eng, pos = fastcrc.engine_init(e), 0
            while pos < n:
                step = rng.randrange(1, n - pos + 1)
                eng.absorb(m[pos:pos + step])
                pos += step
            assert eng.finish().data == classifier.classify(m, e).data, (path, e.index, n)
            checked += 1
    for e in block_edges:
        for n in range(81):
            m = rng.randbytes(n)
            eng = fastcrc.engine_init(e)
            eng.absorb(m[:n // 3]).absorb(m[n // 3:])
            assert eng.finish().data == classifier.classify(m, e).data, (path, e.index, n)
            checked += 1
    block = 1024  # B = 144 words of codewords
    for e in block_edges:  # one call at one block +-1, where vpclmul takes the block step
        for n in range(block - 1, block + 2):
            m = rng.randbytes(n)
            eng = fastcrc.engine_init(e).absorb(m)
            assert eng.finish().data == classifier.classify(m, e).data, (path, e.index, n)
            checked += 1
    if path != "native":  # the two-thread entry and the combine step
        tables_for, fastcrc._SPLIT_BYTES = fastcrc._tables_for, 1024
        taken = []

        def spied(e):  # what the engine calls, however the tables were cached
            t = tables_for(e)
            return dataclasses.replace(t, split=lambda *args: taken.append(t.split(*args)))

        fastcrc._tables_for = spied
        for e in params.registry():
            for n in (1024, 1025, 2048, 3072, 5000):
                m = rng.randbytes(n)
                cut = rng.randrange(n - 1023)
                eng = fastcrc.engine_init(e).absorb(m[:cut]).absorb(m[cut:])
                assert eng.finish().data == classifier.classify(m, e).data, (path, e.index, n)
                checked += 1
        # above, a caller done first with its short part takes back the worker's; a
        # stream of 64 KiB chunks keeps the worker awake, and it takes parts once the
        # scheduler has it on the other CPU
        e, m = params.entry_for_aligned_bits(1744), rng.randbytes(4 * 65536)
        want, deadline = classifier.classify(m, e).data, time.monotonic() + 10
        taken.clear()
        while 1 not in taken and time.monotonic() < deadline:
            eng = fastcrc.engine_init(e)
            for i in range(0, len(m), 65536):
                eng.absorb(m[i:i + 65536])
            assert eng.finish().data == want, path
        assert 1 in taken, path
        checked += 1
        fastcrc._tables_for, fastcrc._SPLIT_BYTES = tables_for, sys.maxsize
print(" ".join(paths), checked)
"""


# Two threads each run every case 40 times: a plain absorb and a split one from
# the same nonzero register, which must agree.  Prints mismatches, splits taken
# and plain loops run.
TSAN_PROGRAM = """
#include "_absorb.c"
#include <stdio.h>

#define MAX_W 67
#define MAX_TABLE CARRYLESS_WORDS(MAX_W)
static const uint16_t codewords[256] = %(codewords)s;
static const struct {
    size_t n, n2;
    uint64_t table[MAX_TABLE], k[MAX_W];
} cases[] = {
    %(cases)s
};
static uint8_t data[40000 + 100];
static atomic_int mismatches, split, plain;

static void *run(void *seed)
{
    for (int round = 0; round < 40; round++)
        for (size_t c = 0; c < sizeof cases / sizeof cases[0]; c++) {
            uint64_t a[MAX_W] = {0}, b[MAX_W] = {0};
            size_t start = (size_t)seed + round;
            absorb_%(kernel)s(a, cases[c].table, codewords, data, start);
            memcpy(b, a, sizeof a);
            absorb_%(kernel)s(a, cases[c].table, codewords, data + start, cases[c].n);
            int took = absorb_split_%(kernel)s(b, cases[c].table, codewords, data + start,
                                               cases[c].n, cases[c].n2, cases[c].k);
            atomic_fetch_add(took ? &split : &plain, 1);
            if (memcmp(a, b, sizeof a))
                atomic_fetch_add(&mismatches, 1);
        }
    return NULL;
}

int main(void)
{
    uint32_t x = 12345;
    for (size_t i = 0; i < sizeof data; i++)
        data[i] = (uint8_t)((x = x * 1103515245 + 12345) >> 16);
    pthread_t threads[2];
    for (size_t i = 0; i < 2; i++)
        pthread_create(&threads[i], NULL, run, (void *)(i * 7 + 1));
    for (size_t i = 0; i < 2; i++)
        pthread_join(threads[i], NULL);
    printf("%%d %%d %%d\\n", atomic_load(&mismatches), atomic_load(&split), atomic_load(&plain));
    return atomic_load(&mismatches) != 0;
}
"""


# The lengths the AddressSanitizer program absorbs on each carry-less kernel: by the
# word step alone (under one block), by the block step (two blocks and a tail) and
# on two threads, the second part ASAN_SPLIT_PART bytes (two blocks each side).
ASAN_LENGTHS = (1000, 3000, 5000)
ASAN_SPLIT_PART = 2048

# Each case's table, K_j, message and register are copied into buffers of
# exactly their size, one table for both kernels.  Prints mismatches against
# the reference and absorbs run.
ASAN_PROGRAM = """
#include "_absorb.c"
#include <stdio.h>
#include <stdlib.h>

#define MAX_W 67
#define MAX_TABLE CARRYLESS_WORDS(MAX_W)
static const uint16_t codewords[256] = %(codewords)s;
static const uint8_t message[] = %(message)s;
static const size_t lengths[3] = {%(lengths)s};
static const struct {
    size_t table_words;
    uint64_t table[MAX_TABLE], k[MAX_W], want[3][MAX_W];
} cases[] = {
    %(cases)s
};

static void *exactly(const void *from, size_t bytes)
{
    void *to = malloc(bytes);
    memcpy(to, from, bytes);
    return to;
}

int main(void)
{
    absorb_fn *absorbs[] = {absorb_clmul, absorb_vpclmul};
    int (*splits[])(uint64_t *, const uint64_t *, const uint16_t *, const uint8_t *, size_t,
                    size_t, const uint64_t *) = {absorb_split_clmul, absorb_split_vpclmul};
    int mismatches = 0, runs = 0;
    for (int kernel = 0; kernel < carryless(); kernel++)
        for (size_t c = 0; c < sizeof cases / sizeof cases[0]; c++) {
            size_t w = cases[c].table[0];
            uint64_t *table = exactly(cases[c].table, cases[c].table_words * 8);
            uint64_t *k = exactly(cases[c].k, w * 8);
            for (int run = 0; run < 3; run++) {
                uint8_t *data = exactly(message, lengths[run]);
                uint64_t *reg = calloc(w, 8);
                if (run < 2)
                    absorbs[kernel](reg, table, codewords, data, lengths[run]);
                else
                    splits[kernel](reg, table, codewords, data, lengths[run], %(part)d, k);
                mismatches += memcmp(reg, cases[c].want[run], w * 8) != 0;
                runs++;
                free(reg);
                free(data);
            }
            free(k);
            free(table);
        }
    printf("%%d %%d\\n", mismatches, runs);
    return mismatches != 0;
}
"""


# Fixed examples, so the tier-1 run is repeatable; the path fixture only
# patches module state that holds for every example, so one setup serves all.
PROPERTY_SETTINGS = settings(derandomize=True, max_examples=150, deadline=None,
                             suppress_health_check=[HealthCheck.function_scoped_fixture])
entries = st.sampled_from(params.registry())


def messages(path: str, short: int = 300) -> st.SearchStrategy[bytes]:
    """0 to short bytes, which cross the 8-byte filler boundary and span many
    cycles; on the -split variants also 1-3 KiB, past the lowered floor, which
    on vpclmul-split is one to three blocks."""
    small = st.binary(max_size=short)
    if path.endswith("-split"):
        return st.one_of(small, st.binary(min_size=TEST_SPLIT_BYTES, max_size=3 * 1024))
    return small


def split(message: bytes, cuts: list[int]) -> list[bytes]:
    bounds = sorted({0, len(message), *(c % (len(message) + 1) for c in cuts)})
    return [message[a:b] for a, b in zip(bounds, bounds[1:])]


class TestProperties:
    @PROPERTY_SETTINGS
    @given(e=entries, data=st.data(), cuts=st.lists(st.integers(0, 300), max_size=6))
    def test_engine_equals_reference(self, path, e, data, cuts):
        m = data.draw(messages(path))
        eng = engine_init(e)
        for chunk in split(m, cuts):
            eng.absorb(chunk)
        assert eng.finish().data == classifier.classify(m, e).data

    @PROPERTY_SETTINGS
    @given(e=entries, data=st.data(), cuts=st.lists(st.integers(0, 300), max_size=12))
    def test_chunking_invariance(self, path, e, data, cuts):
        m = data.draw(messages(path))
        eng = engine_init(e)
        for chunk in split(m, cuts):
            eng.absorb(chunk)
        assert eng.consumed == len(m)
        assert eng.finish().data == engine_init(e).absorb(m).finish().data

    @PROPERTY_SETTINGS
    @given(e=entries, data=st.data())
    def test_registers_combine(self, path, e, data):
        # reg(A || B) = reg(A) * x^(9|B|) + reg(B) mod g, each register taken before
        # finish; lengths 0-200 cross the 8-byte filler boundary and the word boundaries
        poly = gf2poly.BitPolynomial
        a, b = data.draw(messages(path, 200)), data.draw(messages(path, 200))

        def register(m):
            return engine_init(e).absorb(m).register

        moved = gf2poly.remainder(gf2poly.multiply(poly(register(a)), poly(1 << 9 * len(b))),
                                  e.generator)
        assert register(a + b) == moved.value ^ register(b)

    @PROPERTY_SETTINGS
    @given(e=entries, data=st.data())
    def test_digests_are_linear(self, path, e, data):
        # for |a| == |b|, digest(a) ^ digest(b) == (expand(a) ^ expand(b)) * x^d mod g: the
        # filler that messages under 8 bytes take cancels, so finished digests are compared
        a = data.draw(messages(path))
        b = data.draw(st.binary(min_size=len(a), max_size=len(a)))

        def digest(m):
            return int.from_bytes(engine_init(e).absorb(m).finish().data, "big")

        both = sbox.expand_message(a) ^ sbox.expand_message(b)
        want = gf2poly.remainder(gf2poly.shift_left(both, e.degree), e.generator)
        assert digest(a) ^ digest(b) == want.value
