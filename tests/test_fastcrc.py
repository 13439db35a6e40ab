import gc
import importlib.machinery
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

from badderlocks import classifier, cli, fastcrc, gf2poly, params, sbox
from badderlocks.fastcrc import build_tables

FOX = b"The quick brown fox jumps over the lazy dog"
PYTHON_INCLUDE = sysconfig.get_paths()["include"]  # where the module's build finds Python.h


# the kernel's absorb loops, fastest first, each with the level of the module's CPU probe,
# carryless(), at which build_tables picks it
LEVELS = {"vpclmul": 2, "clmul": 1, "native": 0}
KERNEL_PATHS = tuple(LEVELS)
CARRYLESS_PATHS = KERNEL_PATHS[:2]
# the level this host's CPU reports, read before any test fakes the probe; -1 without the module
HOST_LEVEL = -1 if fastcrc._kernel is None else fastcrc._kernel.carryless()
# the chunk size from which the "-split" variants absorb on two threads: the smallest
# split floor any code or test uses
TEST_SPLIT_BYTES = 1024
# the bytes of one block step on vpclmul: B = 144 words of codewords, 1 KiB
BLOCK_BYTES = 1024
# a carry-less table's tail: two families of SUMS sequences, one slot each, eight words
# below each sequence's origin, then its blocks: mu' one word up, then G
SUMS, MU_BLOCKS, G_BLOCKS = 8, 19, 9
MU_SLOT, G_SLOT = 8 + 8 * MU_BLOCKS, 8 + 8 * G_BLOCKS
# how long a test repeats split absorbs until the worker takes a part: a caller takes
# back a part the worker has not started, as when the scheduler has put the worker on
# the caller's CPU until it balances the two
WORKER_PATIENCE_S = 10
# the table cache of each path, kept for the whole test run
_path_tables: dict[str, dict] = {}


def host_runs(path: str) -> bool:
    """Whether this host runs the given kernel path."""
    return LEVELS[path] <= HOST_LEVEL


def use_path(monkeypatch, path):
    """Make engines built from here on run the given path.

    A kernel path is forced by faking the module's CPU probe, carryless(),
    to report that path's level, as on a CPU without the faster
    instructions; a path above what this CPU runs skips.  "python" unloads
    the kernel and runs the pure-Python twins of the engine, engine_init and
    _tables_for, as on a host without a compiler; the other paths run the
    module's.
    "vpclmul-split" and "clmul-split" are those paths with the two-thread
    floor lowered to TEST_SPLIT_BYTES.  Each path keeps one table cache for the whole test
    run, so the combine constants of an entry are built once.
    """
    if path != "python" and fastcrc._kernel is None:
        pytest.skip("the C kernel is not loaded here (no working C compiler)")
    if path == "python":
        monkeypatch.setattr(fastcrc, "_kernel", None)
        monkeypatch.setattr(fastcrc, "CrcEngine", fastcrc._PyCrcEngine)
        monkeypatch.setattr(fastcrc, "engine_init", fastcrc._py_engine_init)
        monkeypatch.setattr(fastcrc, "_tables_for", fastcrc._py_tables_for)
    else:
        if path.endswith("-split"):
            path = path.removesuffix("-split")
            monkeypatch.setattr(fastcrc, "_SPLIT_BYTES", TEST_SPLIT_BYTES)
        if not host_runs(path):
            pytest.skip(f"this CPU cannot run the {path} kernel")
        monkeypatch.setattr(fastcrc._kernel, "carryless", lambda: LEVELS[path])
    monkeypatch.setattr(fastcrc, "_table_cache", _path_tables.setdefault(path, {}))


@pytest.fixture(params=["vpclmul", "vpclmul-split", "clmul", "clmul-split", "native", "python"])
def path(request, monkeypatch):
    """Run the test through both carry-less kernels, each also split across two
    threads from 1 KiB, the table kernel and the Python loop."""
    use_path(monkeypatch, request.param)
    return request.param


def first_carryless_path(monkeypatch) -> str:
    """Force the fastest carry-less path this host runs, or skip."""
    loaded = [p for p in CARRYLESS_PATHS if host_runs(p)]
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
        return tables._replace(**{name: lambda *args: record(real, args)})

    monkeypatch.setattr(fastcrc, "_tables_for", spied)


class Recorded:
    """A pending split whose join appends what it returns to a list: how the join went,
    0 (the caller absorbed the whole chunk), 1 (it took H2), 2 (it waited for the worker
    thread to finish H1 and H2) or 3 (the worker had finished them)."""

    def __init__(self, pending, joins: list[int]):
        self.pending, self.joins = pending, joins

    def join(self) -> int:
        outcome = self.pending.join()
        self.joins.append(outcome)
        return outcome


def record_splits(monkeypatch, split=None) -> list[int]:
    """Spy on the two-thread entry, called as split(real, args) if given; the list collects
    what each split's join returns, so any(list) shows that the worker ran a part."""
    joins: list[int] = []
    call = split or (lambda real, args: real(*args))
    spy(monkeypatch, "split", lambda real, args: Recorded(call(real, args), joins))
    return joins


def unsplit(monkeypatch, e, m: bytes, chunk: int | None = None) -> bytes:
    """The digest of m on one thread, absorbed in pieces of chunk bytes (default: whole)."""
    with monkeypatch.context() as mp:
        mp.setattr(fastcrc, "_SPLIT_BYTES", sys.maxsize)
        return stream(e, m, chunk)


def stream(e, m: bytes, chunk: int | None = None) -> bytes:
    eng = fastcrc.engine_init(e)
    step = chunk or max(len(m), 1)
    for i in range(0, len(m), step):
        eng.absorb(m[i:i + step])
    return eng.finish().data


_references: dict[tuple, bytes] = {}


def reference(e, m: bytes) -> bytes:
    """classifier.classify(m, e).data, once per session: the path variants share their messages."""
    key = (e, m)
    if key not in _references:
        _references[key] = classifier.classify(m, e).data
    return _references[key]


def custom_entry(degree: int, generator_degree: int | None = None):
    """Registry entry 1 under index 0, which no registry entry has, with another degree, the
    aligned size that degree rounds up to, and the generator x^generator_degree + x^6 + x^4 +
    x^3 + x + 1 (generator_degree defaults to degree)."""
    top = degree if generator_degree is None else generator_degree
    return params.registry()[0]._replace(index=0, degree=degree,
                                         aligned_bits=8 * ((degree + 7) // 8),
                                         generator=gf2poly.BitPolynomial(1 << top | 0b1011011))


# entries outside the contract build_tables enforces: too small, one word too many, a
# degree that is not the generator's, and an aligned size that is not the degree's in
# whole bytes, which would absorb a whole message before finish refused its digest
REFUSED = {"degree-8": lambda: custom_entry(8), "degree-4545": lambda: custom_entry(4545),
           "degree-below-generator": lambda: custom_entry(62, 63),
           "aligned-bits-byte-over": lambda: custom_entry(62)._replace(aligned_bits=72)}


def refusal(e) -> str:
    """The ValueError message build_tables raises for an entry outside its contract."""
    return (f"an engine takes an entry of degree 9..4544 whose generator has that degree "
            f"and whose aligned_bits is 8 * ceil(degree / 8); got degree {e.degree}, a "
            f"generator of degree {e.generator.degree} and aligned_bits {e.aligned_bits}")


def row_forms(e):
    """e's tables as the table kernel builds them, then as the Python loop builds them."""
    forms = []
    for path in ("native", "python") if host_runs("native") else ("python",):
        with pytest.MonkeyPatch.context() as mp:
            use_path(mp, path)
            forms.append(build_tables(e))
    return forms


def family_sums(c: list[int]) -> list[list[int]]:
    """The SUMS sequences Karatsuba reads, from c, a constant's words from seven below its
    origin: bit b of s moves a copy 2^b blocks down, so sequence s is the sum of c moved
    down 8k words over every k whose bits are among those of s; c is zero past its end."""
    sums = []
    for s in range(SUMS):
        sums.append([0] * len(c))
        for k in (k for k in range(SUMS) if k & s == k):
            for r in range(len(c) - 8 * k):
                sums[s][r] ^= c[r + 8 * k]
    return sums


def value(e, words) -> int:
    """The value held in words laid out like e's register, as the Python engine reads it: so
    the Python reader is checked on the registers and constants each C kernel writes."""
    return int.from_bytes(fastcrc._python_digest(bytes(words), e.degree), "big")


def row(e, t, v: int) -> int:
    """Row v of e's "python" or "native" table t: the register one cycle takes from zero with
    codeword v, which every byte maps to."""
    reg = bytearray(8 * t.words)
    t.loop(reg, t.main, array("H", [v]) * 256, b"\0")
    return value(e, reg)


class TestTables:
    def test_row_zero_is_zero(self):
        for e in params.registry()[:5]:
            for t in row_forms(e):
                assert row(e, t, 0) == 0

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
                    assert row(e, t, v) == expected.value, (bits, t.path, v)

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
        # zeros.  That is all of a clmul table; on vpclmul the module's tail follows, which
        # holds mu'.  Where the CPU runs both carry-less kernels, the clmul table is the
        # vpclmul table's start
        tables = {}
        for kernel in CARRYLESS_PATHS:
            if not host_runs(kernel):
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
                tail = fastcrc._kernel.TAIL_WORDS if kernel == "vpclmul" else 0
                assert len(t.main) == at + tail, (kernel, e.index)
        if len(tables) == 2:
            for c, v in zip(tables["clmul"], tables["vpclmul"]):
                assert c.main == v.main[:len(c.main)], c.main[0]

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
                    k = value(e, fastcrc._shift(e, t, j))
                    assert k >> e.degree == 0, (e.index, j)
                    moved = gf2poly.remainder(poly(k << 2 * pad + e.degree), e.generator)
                    assert moved == power, (e.index, j)
                power = gf2poly.remainder(gf2poly.multiply(power, power), e.generator)

    def test_block_constants_match_gf2poly(self, monkeypatch):
        # the tail holds eight zero words, then mu' = floor(x^(d + 64B) / g) - x^(64B) one
        # word up, zeros after it to the end of its slot: (mu' + x^(64B)) * g + x^(d + 64B)
        # mod g == x^(d + 64B).  The block step: for T of B words, Q = low w words of
        # T ^ (T * mu' >> 64B) and the low w words of Q * G are T * x^(64w) mod g * x^pad.
        # Both families of sums follow (see family_sums).  Only a vpclmul table has the tail
        use_path(monkeypatch, "vpclmul")
        poly = gf2poly.BitPolynomial
        b = 9 * BLOCK_BYTES // 64
        rng = random.Random(42)
        for e in params.registry():
            t = build_tables(e)
            w = t.words
            at = 9 + 8 * ((w + 7) // 8)  # the tail
            mu_at, g_at = at + 8, at + 8 + SUMS * MU_SLOT  # the two families
            assert not any(t.main[at:at + 9]), e.index
            assert not any(t.main[mu_at + 1 + b:at + MU_SLOT]), e.index
            mu = int.from_bytes(bytes(memoryview(t.main)[at + 9:at + 9 + b]), sys.byteorder)
            assert t.main[g_at - 8:g_at + 8 * G_BLOCKS].tolist() == \
                [0] * 8 + t.main[9:9 + w].tolist() + [0] * (8 * G_BLOCKS - w), e.index
            assert len(t.main) == g_at - 8 + SUMS * G_SLOT, e.index
            for origin, slot, blocks in ((mu_at, MU_SLOT, MU_BLOCKS), (g_at, G_SLOT, G_BLOCKS)):
                got = [t.main[origin + s * slot - 7:origin + s * slot + 8 * blocks].tolist()
                       for s in range(SUMS)]
                assert got == family_sums(got[0]), (e.index, origin)
            pad, low_w = 64 * w - e.degree, (1 << 64 * w) - 1
            assert 2 * w <= b, e.index
            power = poly(1 << e.degree + 64 * b)
            product = gf2poly.multiply(poly(mu ^ 1 << 64 * b), e.generator)
            assert product ^ gf2poly.remainder(power, e.generator) == power, e.index
            g = fastcrc._barrett_constants(e)[1] << pad
            for m in [(1 << 64 * b) - 1] + [rng.getrandbits(64 * b) for _ in range(2)]:
                q = (m ^ gf2poly.multiply(poly(m), poly(mu)).value >> 64 * b) & low_w
                want = gf2poly.remainder(poly(m << 64 * w), poly(e.generator.value << pad))
                assert gf2poly.multiply(poly(q), poly(g)).value & low_w == want.value, e.index

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
            if not host_runs(kernel):
                continue
            with pytest.MonkeyPatch.context() as mp:
                use_path(mp, kernel)
                want = [unsplit(mp, e, m) for e in entries]
                taken = record_splits(mp)
                deadline = time.monotonic() + WORKER_PATIENCE_S
                while not any(taken) and time.monotonic() < deadline:
                    assert [fastcrc.engine_init(e).absorb(m).finish().data for e in entries] == want
                assert any(taken), kernel

    def test_kernel_loads_where_a_compiler_runs(self):
        # an engine runs the path of the level the module's CPU probe reports, and that
        # path is the one the CPU's flags allow
        if shutil.which("cc") is None:
            pytest.skip("no cc on PATH")
        assert fastcrc._kernel is not None
        path = fastcrc.engine_init(params.entry_for_aligned_bits(64)).path
        assert LEVELS[path] == fastcrc._kernel.carryless()
        cpuinfo = Path("/proc/cpuinfo")
        if cpuinfo.is_file():
            flags = set(cpuinfo.read_text().split())
            vpclmul = {"avx512f", "avx512bw", "avx512vbmi", "vpclmulqdq"}
            assert path == ("vpclmul" if vpclmul <= flags
                            else "clmul" if "pclmulqdq" in flags else "native")


class TestEngine:
    def test_init_state(self):
        e = params.entry_for_aligned_bits(64)
        eng = fastcrc.engine_init(e)
        assert eng.register == 0
        assert eng.consumed == 0

    def test_shared_tables(self):
        e = params.entry_for_aligned_bits(128)
        assert fastcrc.engine_init(e).tables is fastcrc.engine_init(e).tables

    def test_init_all_entries(self):
        for e in params.registry():
            assert fastcrc.engine_init(e).register == 0

    def test_empty_input_equals_reference(self):
        for e in params.registry()[:4]:
            assert fastcrc.engine_init(e).finish().data == classifier.classify(b"", e).data

    def test_fox_chunked(self):
        e = params.entry_for_aligned_bits(64)
        eng = fastcrc.engine_init(e)
        eng.absorb(b"The qu").absorb(b"ick brown fox jumps over the lazy dog")
        assert eng.finish().hex() == "4A0B6AAA2BA80913"

    def test_small_message_vectors(self):
        assert fastcrc.engine_init(params.entry_for_aligned_bits(64)) \
            .absorb(b"A").finish().hex() == "177EB92F319B46C1"
        got = fastcrc.engine_init(params.entry_for_aligned_bits(320)) \
            .absorb(b"ABCDEFGH").finish().hex()
        assert got.startswith("6ADD0F97")
        assert got.endswith("30B75303")

    def test_empty_chunk_identity(self):
        e = params.entry_for_aligned_bits(64)
        eng = fastcrc.engine_init(e).absorb(b"abc")
        reg = eng.register
        eng.absorb(b"")
        assert eng.register == reg

    def test_byte_at_a_time(self):
        e = params.entry_for_aligned_bits(256)
        rng = random.Random(31)
        m = bytes(rng.randrange(256) for _ in range(50))
        eng = fastcrc.engine_init(e)
        for b in m:
            eng.absorb(bytes([b]))
        assert eng.finish().data == fastcrc.engine_init(e).absorb(m).finish().data

    def test_single_use(self):
        e = params.entry_for_aligned_bits(64)
        eng = fastcrc.engine_init(e)
        eng.finish()
        with pytest.raises(RuntimeError):
            eng.absorb(b"x")
        with pytest.raises(RuntimeError):
            eng.finish()


@pytest.fixture(params=["module", "python"])
def engine_class(request):
    """The module's engine type and its pure-Python twin, which hosts without the module run."""
    if request.param == "module":
        if fastcrc._kernel is None:
            pytest.skip("the C kernel is not loaded here (no working C compiler)")
        assert fastcrc.CrcEngine is fastcrc._kernel.CrcEngine
        return fastcrc.CrcEngine
    return fastcrc._PyCrcEngine


class TestEngineClasses:
    """One contract for both engine classes, on the tables of this host's path."""

    def test_initial_state_and_chaining(self, engine_class):
        e = params.entry_for_aligned_bits(1744)
        tables = fastcrc._tables_for(e)
        eng = engine_class(e, tables)
        assert type(eng) is engine_class
        assert engine_class(tables=tables, entry=e).entry is e
        with pytest.raises(TypeError):
            engine_class(e)
        if engine_class is not fastcrc._PyCrcEngine:  # the module's type has one constructor
            with pytest.raises(TypeError):
                engine_class.__new__(engine_class)
        assert eng.entry is e and eng.tables is tables and eng.consumed == 0
        assert type(eng._reg) is bytearray and eng._reg == bytes(8 * tables.words)
        assert eng.register == 0 and eng.path == tables.path
        assert eng.absorb(FOX[:6]) is eng and eng.absorb(FOX[6:]).consumed == len(FOX)
        assert eng.register == int.from_bytes(reference(e, FOX), "big")
        assert repr(eng) == f"<CrcEngine entry=17 bits=1744 consumed=43 path={tables.path}>"

    def test_finish_once(self, engine_class):
        e = params.entry_for_aligned_bits(64)
        eng = engine_class(e, fastcrc._tables_for(e))
        digest = eng.finish()
        assert type(digest) is classifier.ClassifierDigest and digest.entry is e
        for call in (lambda: eng.absorb(b"x"), eng.finish):
            with pytest.raises(RuntimeError, match="already finished"):
                call()
        assert eng.consumed == 0

    def test_non_buffer_raises_before_any_change(self, engine_class):
        e = params.entry_for_aligned_bits(416)
        eng = engine_class(e, fastcrc._tables_for(e)).absorb(b"abc")
        before = (eng.register, bytes(eng._reg))
        for chunk in (5, "abc", None):
            with pytest.raises(TypeError):
                eng.absorb(chunk)
            assert eng.consumed == 3 and (eng.register, bytes(eng._reg)) == before
        assert eng.finish().data == reference(e, b"abc")

    def test_chunks_are_their_raw_bytes(self, engine_class):
        e = params.entry_for_aligned_bits(1744)
        words, halves = array("Q", [0x0102030405060708]), array("I", FOX[:40])
        for chunk, m in ((bytearray(FOX), FOX), (memoryview(FOX)[::2], FOX[::2]),
                         (words, words.tobytes()), (halves, FOX[:40]),
                         (memoryview(halves)[::3], halves[::3].tobytes())):
            eng = engine_class(e, fastcrc._tables_for(e)).absorb(chunk)
            assert eng.consumed == len(m), type(chunk)
            assert eng.finish().data == reference(e, m), type(chunk)

    @pytest.mark.parametrize("bits", [64, 1744])
    def test_classify_takes_what_absorb_takes(self, engine_class, bits):
        # the reference reads any bytes-like message by its raw bytes, as absorb does, and
        # refuses a str or an int with the same exception
        e = params.entry_for_aligned_bits(bits)
        halves = array("H", FOX[:42])
        for m, raw in ((memoryview(FOX), FOX), (memoryview(FOX)[:5], FOX[:5]),
                       (memoryview(FOX)[::2], FOX[::2]), (halves, FOX[:42]),
                       (memoryview(halves)[::3], halves[::3].tobytes()),
                       (bytearray(FOX), FOX)):
            want = classifier.classify(raw, e)
            assert classifier.classify(m, e) == want, (bits, type(m))
            assert engine_class(e, fastcrc._tables_for(e)).absorb(m).finish() == want, type(m)
        for m in ("abc", 5):
            with pytest.raises(TypeError):
                classifier.classify(m, e)
            with pytest.raises(TypeError):
                engine_class(e, fastcrc._tables_for(e)).absorb(m)

    @pytest.mark.parametrize("bits", [64, 1744, 4288])
    def test_filler_edges_match_classify(self, engine_class, bits):
        e = params.entry_for_aligned_bits(bits)
        for n in (0, 7, 8, 9):
            m = FOX[:n]
            digest = engine_class(e, fastcrc._tables_for(e)).absorb(m).finish()
            assert digest == classifier.classify(m, e), (bits, n)

    def test_finish_builds_an_exact_digest(self, engine_class):
        e = params.entry_for_aligned_bits(416)
        for m in (b"", FOX):
            digest = engine_class(e, fastcrc._tables_for(e)).absorb(m).finish()
            want = classifier.classify(m, e)
            assert type(digest) is classifier.ClassifierDigest and digest.entry is e
            assert digest == want and hash(digest) == hash(want) and repr(digest) == repr(want)
            with pytest.raises(AttributeError):  # slots only, as __init__ would leave it
                digest.extra = 1

    def test_finish_checks_the_digest_length(self, engine_class):
        # an entry whose aligned size does not match its degree: ClassifierDigest's check.
        # build_tables refuses such an entry, so the engine is built directly over the
        # tables of the entry it was made from
        e = params.entry_for_aligned_bits(1744)
        eng = engine_class(e._replace(aligned_bits=e.aligned_bits + 8), fastcrc._tables_for(e))
        with pytest.raises(ValueError, match="^digest length does not match the entry's "
                                             "aligned size$"):
            eng.finish()
        with pytest.raises(RuntimeError, match="already finished"):
            eng.finish()

    def test_finish_reads_the_digest_class_at_each_call(self, engine_class, monkeypatch):
        class Tagged(classifier.ClassifierDigest):
            __slots__ = ()

        e = params.entry_for_aligned_bits(64)
        monkeypatch.setattr(fastcrc, "ClassifierDigest", Tagged)
        digest = engine_class(e, fastcrc._tables_for(e)).absorb(FOX).finish()
        assert type(digest) is Tagged and digest.data == reference(e, FOX)

    def test_absorb_and_finish_read_the_codeword_maps_at_each_call(self, engine_class,
                                                                    monkeypatch):
        # a map that sends every byte to byte 0's codeword turns what the next loop call
        # reads into zero bytes; a chunk of TEST_SPLIT_BYTES or more takes the split where
        # the module's type makes one, which reads the map too
        e = params.entry_for_aligned_bits(1744)
        tables = fastcrc._tables_for(e)
        zero = array("H", [fastcrc._CODEWORDS[0]]) * 256
        monkeypatch.setattr(fastcrc, "_SPLIT_BYTES", TEST_SPLIT_BYTES)
        monkeypatch.setattr(fastcrc, "_FILLER", zero)
        digest = engine_class(e, tables).absorb(FOX[:3]).finish()
        assert digest.data == reference(e, FOX[:3] + bytes(5))
        chunk = random.Random(45).randbytes(2 * TEST_SPLIT_BYTES)
        eng = engine_class(e, tables).absorb(FOX)
        monkeypatch.setattr(fastcrc, "_CODEWORDS", zero)
        digest = eng.absorb(chunk).absorb(FOX).finish()
        assert digest.data == reference(e, FOX + bytes(len(chunk) + len(FOX)))
        assert eng.splits == (engine_class is not fastcrc._PyCrcEngine and tables.split is not None)


def test_module_engine_attributes_are_fixed_at_construction(monkeypatch):
    # the module's type has no setters: an engine's entry, tables, register and counters
    # can be neither replaced nor deleted, even with a split pending, and the stream goes
    # on to classify's digest.  The Python class keeps plain slots
    if fastcrc._kernel is None:
        pytest.skip("the C kernel is not loaded here (no working C compiler)")
    monkeypatch.setattr(fastcrc, "_SPLIT_BYTES", TEST_SPLIT_BYTES)
    e = params.entry_for_aligned_bits(1744)
    m = random.Random(53).randbytes(2 * TEST_SPLIT_BYTES)
    eng = fastcrc.CrcEngine(e, fastcrc._tables_for(e)).absorb(m)
    for name in ("entry", "tables", "_reg", "consumed", "splits", "splits_taken"):
        value = getattr(eng, name)
        with pytest.raises(AttributeError):
            setattr(eng, name, value)
        with pytest.raises(AttributeError):
            delattr(eng, name)
        assert getattr(eng, name) == value, name
    assert eng.absorb(FOX).finish() == classifier.classify(m + FOX, e)


def test_module_engine_cleared_by_the_collector_raises_attribute_error():
    # the type's tp_clear, which the collector calls on an engine in a cycle, takes its
    # entry, tables and register; every entry point then raises AttributeError, in a
    # forked child, so that a NULL dereference fails the test rather than the run
    if fastcrc._kernel is None:
        pytest.skip("the C kernel is not loaded here (no working C compiler)")
    import ctypes

    get_slot = ctypes.pythonapi.PyType_GetSlot
    get_slot.restype, get_slot.argtypes = ctypes.c_void_p, [ctypes.py_object, ctypes.c_int]
    tp_clear = ctypes.PYFUNCTYPE(ctypes.c_int, ctypes.py_object)(  # holds the GIL
        get_slot(fastcrc.CrcEngine, 51))  # Py_tp_clear
    e = params.entry_for_aligned_bits(64)

    def child():
        eng = fastcrc.engine_init(e).absorb(FOX)
        assert tp_clear(eng) == 0
        raised = []
        for op in (lambda: eng.absorb(FOX), eng.finish, lambda: eng.register,
                   lambda: eng._reg, lambda: eng.path, lambda: repr(eng),
                   lambda: eng.entry, lambda: eng.tables):
            try:
                op()
            except AttributeError:
                raised.append(True)
        return len(raised), eng.consumed

    assert forked(child) == (8, len(FOX))


@pytest.fixture(params=["module", "python"])
def init_twin(request, monkeypatch):
    """The module's engine_init and tables_for, or their pure-Python twins with the
    Python engine class, as hosts without the module run them; over an empty table
    cache, with the entries that build_tables builds for recorded in `built`."""
    if request.param == "module":
        if fastcrc._kernel is None:
            pytest.skip("the C kernel is not loaded here (no working C compiler)")
        assert fastcrc.engine_init.__self__ is fastcrc._tables_for.__self__ is fastcrc._kernel
    else:
        monkeypatch.setattr(fastcrc, "CrcEngine", fastcrc._PyCrcEngine)
        monkeypatch.setattr(fastcrc, "engine_init", fastcrc._py_engine_init)
        monkeypatch.setattr(fastcrc, "_tables_for", fastcrc._py_tables_for)
    built: list = []
    build_tables = fastcrc.build_tables
    monkeypatch.setattr(fastcrc, "build_tables", lambda e: built.append(e) or build_tables(e))
    monkeypatch.setattr(fastcrc, "_table_cache", {})
    return fastcrc.engine_init, fastcrc._tables_for, built


class TestInitTwins:
    """One contract for the module's engine_init and tables_for and their Python twins."""

    def test_repeat_call_returns_the_cached_tables(self, init_twin):
        engine_init, tables_for, built = init_twin
        e = params.entry_for_aligned_bits(1744)
        tables = tables_for(e)
        assert tables_for(e) is tables and built == [e]
        eng = engine_init(e)
        assert type(eng) is fastcrc.CrcEngine and eng.entry is e and eng.tables is tables
        assert eng.consumed == 0 and eng.register == 0 and built == [e]

    def test_equal_entry_gets_the_cached_tables(self, init_twin):
        engine_init, tables_for, built = init_twin
        e = params.entry_for_aligned_bits(416)
        twin = e._replace()
        assert twin is not e and twin == e
        tables = tables_for(e)
        assert tables_for(twin) is tables and engine_init(twin).tables is tables
        assert built == [e] and fastcrc._table_cache[e.index][0] is e

    def test_entry_sharing_an_index_gets_its_own_tables(self, init_twin):
        engine_init, tables_for, built = init_twin
        e = params.registry()[0]
        custom = e._replace(generator=gf2poly.BitPolynomial(e.generator.value ^ 0b10))
        tables = tables_for(e)
        assert tables_for(custom) is not tables and built == [e, custom]
        assert fastcrc._table_cache[e.index][0] is custom
        for entry in (e, custom):
            assert engine_init(entry).absorb(FOX).finish() == classifier.classify(FOX, entry)
        assert built == [e, custom, e, custom]

    @pytest.mark.parametrize("case", REFUSED)
    def test_refused_entry_is_not_cached(self, init_twin, case):
        engine_init, tables_for, built = init_twin
        e = REFUSED[case]()
        for call in (engine_init, tables_for):
            with pytest.raises(ValueError) as exc:
                call(e)
            assert str(exc.value) == refusal(e), call
        assert built == [e, e] and fastcrc._table_cache == {}

    def test_names_are_read_at_each_call(self, init_twin, monkeypatch):
        engine_init, tables_for, built = init_twin
        e = params.entry_for_aligned_bits(64)
        tables = tables_for(e)
        made = []
        monkeypatch.setattr(fastcrc, "_tables_for", lambda entry: made.append(entry) or tables)
        monkeypatch.setattr(fastcrc, "CrcEngine", lambda entry, t: (entry, t))
        assert engine_init(e) == (e, tables) and made == [e]
        monkeypatch.setattr(fastcrc, "_table_cache", {})
        assert tables_for(e) is not tables and built == [e, e]


class TestEquivalence:
    def test_matches_reference_across_entries(self):
        rng = random.Random(32)
        for e in params.registry():
            for n in (0, 1, 7, 8, 9, 40):
                m = bytes(rng.randrange(256) for _ in range(n))
                assert fastcrc.engine_init(e).absorb(m).finish().data == \
                    classifier.classify(m, e).data, (e.index, n)

    def test_register_is_digest_before_finish(self):
        # direct form: once the filler rule no longer applies, the register
        # already holds expand(m) * x^d mod g
        rng = random.Random(34)
        for e in params.registry():
            for n in (8, 9, 40):
                m = bytes(rng.randrange(256) for _ in range(n))
                assert fastcrc.engine_init(e).absorb(m).register == int.from_bytes(
                    classifier.classify(m, e).data, "big"), (e.index, n)

    def test_chunking_invariance(self):
        rng = random.Random(33)
        e = params.entry_for_aligned_bits(416)
        for _ in range(20):
            m = bytes(rng.randrange(256) for _ in range(rng.randrange(200)))
            eng = fastcrc.engine_init(e)
            pos = 0
            while pos < len(m):
                step = rng.randrange(1, len(m) - pos + 1)
                eng.absorb(m[pos:pos + step])
                pos += step
            assert eng.finish().data == fastcrc.engine_init(e).absorb(m).finish().data


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
                eng = fastcrc.engine_init(e)
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
                    assert fastcrc.engine_init(e).absorb(m).finish().data == want, (e.index, n)

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
            eng = fastcrc.engine_init(e).absorb(chunk)
            assert eng.consumed == len(m)
            assert eng.finish().data == reference(e, m)
            contiguous = memoryview(chunk).c_contiguous
            assert received and (received[0] is chunk) == contiguous, (path, type(chunk))
        eng = fastcrc.engine_init(e).absorb(b"abc")
        with pytest.raises(TypeError):
            eng.absorb(5)
        assert (eng.register, eng.consumed) == (fastcrc.engine_init(e).absorb(b"abc").register, 3)

    def test_entry_sharing_an_index_gets_its_own_tables(self, path):
        # the table cache is keyed by index: an entry with a registry index but another
        # generator must not run on the registry entry's tables, nor leave its own to it
        e = params.registry()[0]
        custom = e._replace(generator=gf2poly.BitPolynomial(e.generator.value ^ 0b10))
        m = random.Random(47).randbytes(2 * 1024)
        for entry in (e, custom, e):
            for message in (b"abc", m):
                assert fastcrc.engine_init(entry).absorb(message).finish().data == \
                    classifier.classify(message, entry).data, (entry.generator, len(message))

    def test_repr_names_entry_bytes_and_path(self, path):
        eng = fastcrc.engine_init(params.entry_for_aligned_bits(1744)).absorb(FOX)
        assert repr(eng) == \
            f"<CrcEngine entry=17 bits=1744 consumed=43 path={path.partition('-')[0]}>"


class TestEntryContract:
    """Every path takes the same entries: those whose generator has the entry's degree,
    from 9 to 4544, and whose aligned size is that degree in whole bytes; build_tables
    refuses the others with one ValueError."""

    @pytest.mark.parametrize("degree", [9, 4481, 4544])  # 4481: 71 words, the largest pad
    def test_edge_degrees_match_classify(self, path, monkeypatch, degree):
        e = custom_entry(degree)
        splits = record_splits(monkeypatch)
        m = random.Random(degree).randbytes(1536)
        for n in (0, 7, 8, 9, 1536):
            assert fastcrc.engine_init(e).absorb(m[:n]).finish().data == reference(e, m[:n]), n
        assert bool(splits) == path.endswith("-split")  # 1,536 B splits from the 1 KiB floor

    @pytest.mark.parametrize("case", REFUSED)
    def test_other_entries_are_refused_and_not_cached(self, path, case):
        e = REFUSED[case]()
        before = list(fastcrc._table_cache.items())
        for call in (fastcrc.engine_init, fastcrc._tables_for, build_tables):
            with pytest.raises(ValueError) as exc:
                call(e)
            assert str(exc.value) == refusal(e), call
        assert list(fastcrc._table_cache.items()) == before
        assert e not in [entry for entry, _ in fastcrc._table_cache.values()]


# register widths where the block step's products change shape: one word, one word
# either side of one and two blocks of eight, and the largest two
EDGE_WORDS = (1, 7, 8, 9, 15, 16, 17, 67, 71)


class TestBlockStep:
    def test_matches_gf2poly_from_random_registers(self, path):
        # at every register width, on both engine twins: from a random register, 2 KiB and
        # 100 bytes (two block steps on vpclmul, then the word step, and on the -split
        # variants the module's engine splits with q = 512) leave reg * x^(9n) +
        # expand(m) * x^d mod g, by gf2poly.multiply; from a zero register, classify's
        # digest.  Widths no registry entry has take custom entries
        poly = gf2poly.BitPolynomial
        rng = random.Random(47)
        m = rng.randbytes(2 * BLOCK_BYTES + 100)
        by_width = {(e.degree + 63) // 64: e for e in params.registry()}
        for w in EDGE_WORDS:
            by_width.setdefault(w, custom_entry(64 * w - 5))
        expanded = sbox.expand_message(m)
        for w, e in sorted(by_width.items()):
            tables = fastcrc._tables_for(e)
            for twin in {fastcrc.CrcEngine, fastcrc._PyCrcEngine}:
                start = rng.getrandbits(e.degree)
                eng = twin(e, tables)
                eng._reg[:] = fastcrc._to_words(start << 64 * w - e.degree, w).tobytes()
                moved = gf2poly.multiply(poly(start), poly(1 << 9 * len(m)))
                want = gf2poly.remainder(moved ^ gf2poly.shift_left(expanded, e.degree),
                                         e.generator)
                assert eng.absorb(m).register == want.value, (path, twin, w)
                digest = twin(e, tables).absorb(m).finish().data
                assert digest == reference(e, m), (path, twin, w)


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
        assert len(taken) == 16 * len(entries) and set(taken) <= {0, 1, 2, 3} and any(taken)

    def test_forked_child_starts_its_own_worker(self, monkeypatch):
        first_carryless_path(monkeypatch)
        monkeypatch.setattr(fastcrc, "_SPLIT_BYTES", 16 * 1024)
        e = params.entry_for_aligned_bits(1744)
        m = random.Random(40).randbytes(64 * 1024)
        want = unsplit(monkeypatch, e, m)
        taken = record_splits(monkeypatch)

        def until_the_worker_splits():
            digests, deadline = [], time.monotonic() + WORKER_PATIENCE_S
            while not any(taken) and time.monotonic() < deadline:
                digests.append(fastcrc.engine_init(e).absorb(m).finish().data)
            return digests

        assert set(until_the_worker_splits()) == {want}
        assert any(taken)  # the worker runs in this process now
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
        assert any(child_taken)  # the child's own worker ran

    def test_one_cpu_takes_no_split(self, monkeypatch):
        # a forked child pinned to one CPU, after import, never calls the split entry
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("no affinity masks here")
        first_carryless_path(monkeypatch)
        taken = record_splits(monkeypatch)
        e = params.entry_for_aligned_bits(1744)
        m = random.Random(41).randbytes(64 * 1024)
        want = unsplit(monkeypatch, e, m)

        def child():
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            eng = fastcrc.engine_init(e).absorb(m)
            return eng.finish().data, eng.splits, taken

        assert forked(child) == (want, 0, [])
        # the control: where this process may run on two CPUs, the same spy sees the split
        if len(os.sched_getaffinity(0)) >= 2:
            assert fastcrc.engine_init(e).absorb(m).finish().data == want
            assert len(taken) == 1

    def test_affinity_is_read_at_each_chunk(self, monkeypatch):
        # a child forked once the worker runs asks for a split while it may run on two
        # CPUs, none once it pins itself to one, and splits again once it unpins
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("no affinity masks here")
        allowed = os.sched_getaffinity(0)
        if len(allowed) < 2:
            pytest.skip("this process may run on one CPU only")
        first_carryless_path(monkeypatch)
        e = params.entry_for_aligned_bits(1744)
        m = random.Random(49).randbytes(64 * 1024)
        want = reference(e, m)
        assert fastcrc.engine_init(e).absorb(m).finish().data == want  # starts the worker

        def child():
            splits = []
            for mask in (allowed, {min(allowed)}, allowed):
                os.sched_setaffinity(0, mask)
                eng = fastcrc.engine_init(e).absorb(m)
                splits.append((eng.finish().data == want, eng.splits))
            return splits

        assert forked(child) == [(True, 1), (True, 0), (True, 1)]

    def test_stranded_worker_moves_off_the_callers_cpu(self, monkeypatch):
        # in a forked child the caller and its worker are pinned to one CPU for a split,
        # then given their masks back, which leaves both there: a scheduler that does not
        # balance them would keep them so, and each join would take its job back.  A
        # join that does moves the worker off the caller's CPU within a few splits
        if not hasattr(os, "sched_setaffinity") or not Path("/proc/self/task").is_dir():
            pytest.skip("no thread affinity masks here")
        allowed = os.sched_getaffinity(0)
        if len(allowed) < 2:
            pytest.skip("this process may run on one CPU only")
        first_carryless_path(monkeypatch)
        monkeypatch.setattr(fastcrc, "_SPLIT_BYTES", 16 * 1024)
        e = params.entry_for_aligned_bits(1744)
        m = random.Random(48).randbytes(64 * 1024)
        want = reference(e, m)
        cpu = min(allowed)

        def child():
            digests = {fastcrc.engine_init(e).absorb(m).finish().data}  # starts the worker
            main = threading.get_native_id()
            worker, = [int(tid) for tid in os.listdir("/proc/self/task") if int(tid) != main]
            stat = Path(f"/proc/self/task/{worker}/stat")
            for mask in ({cpu}, allowed):  # a split while pinned wakes the worker there
                for tid in (main, worker):
                    os.sched_setaffinity(tid, mask)
                digests.add(split_directly(e, m)[0])
            where = [int(stat.read_text().rsplit(")", 1)[1].split()[36])]  # the CPU it ran on
            for _ in range(20):
                digests.add(fastcrc.engine_init(e).absorb(m).finish().data)
                where.append(int(stat.read_text().rsplit(")", 1)[1].split()[36]))
            return digests, where, os.sched_getaffinity(worker)

        digests, where, mask = forked(child)
        assert digests == {want}
        assert any(c != cpu for c in where[:6]), where  # unless the scheduler moved it first
        assert mask == allowed  # given back as it was

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
                fastcrc.engine_init(e).absorb(m)
                calls.append((start, time.monotonic()))
        finally:
            done.set()
            thread.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert inside() >= 2, kernel


@pytest.fixture(params=["vpclmul-split", "clmul-split"], ids=lambda variant: f"{variant}-module")
def split_twin(request, monkeypatch):
    """A "-split" variant with the module's engine type, the one engine that splits;
    returns the engine class."""
    use_path(monkeypatch, request.param)
    return fastcrc.CrcEngine


def split_directly(e, m: bytes, pause: float = 0) -> tuple[bytes, int]:
    """m through e's tables' split entry with q = len(m) / 4, an engine's first share,
    joined after pause seconds: the digest and how the join went.  A thread that may run
    on one CPU calls the entry itself, for its engine takes no split."""
    t = fastcrc._tables_for(e)
    q = len(m) // 4
    j = q.bit_length() - 1
    reg = bytearray(8 * t.words)
    job = t.split(reg, t.main, fastcrc._CODEWORDS, m, q, fastcrc._shift(e, t, j),
                  fastcrc._shift(e, t, j + 1))
    if pause:
        time.sleep(pause)
    outcome = job.join()
    return fastcrc._python_digest(reg, e.degree), outcome


def forked(child) -> object:
    """What child() returns, run in a forked child process."""
    context = multiprocessing.get_context("fork")
    reader, writer = context.Pipe(duplex=False)
    process = context.Process(target=lambda: writer.send(child()))
    process.start()
    try:
        assert reader.poll(60), "no answer from the child: a deadlock"
        answer = reader.recv()
    finally:
        process.join(timeout=60)
        if process.is_alive():
            process.kill()
    assert not process.is_alive() and process.exitcode == 0
    return answer


class TestDeferredJoin:
    """A split absorb returns after the caller's part; the engine's next entry point joins
    the worker's.  Each way a join can go gives classify's digest on the module's engine
    type, which alone splits (see TestPythonEngineRunsOneThread)."""

    E_BITS = 1744
    M = random.Random(50).randbytes(64 * 1024)  # H1 32 KiB, H2 and T 16 KiB each

    def entry_and_digest(self):
        e = params.entry_for_aligned_bits(self.E_BITS)
        return e, reference(e, self.M)

    def until(self, done, op):
        """Run op() until done(), for at most WORKER_PATIENCE_S."""
        deadline = time.monotonic() + WORKER_PATIENCE_S
        while not done() and time.monotonic() < deadline:
            op()
        return done()

    def once(self, e, want) -> bytes:
        """One engine over M, finished right after its absorb: the join comes at once."""
        digest = fastcrc.engine_init(e).absorb(self.M).finish().data
        assert digest == want
        return digest

    def test_worker_runs_both_parts(self, split_twin, monkeypatch):
        # a caller busy elsewhere comes back to a worker done with H1 and H2
        e, want = self.entry_and_digest()
        joins = record_splits(monkeypatch)

        def op():
            eng = fastcrc.engine_init(e).absorb(self.M)
            assert type(eng) is split_twin
            time.sleep(0.005)
            assert eng.finish().data == want

        assert self.until(lambda: 3 in joins, op), joins

    def test_caller_takes_the_second_part(self, split_twin, monkeypatch):
        # a spy delays the worker: it is handed all but the last 1 KiB as H1, so a
        # caller that joins at once finds it still on H1 and takes H2
        e, want = self.entry_and_digest()
        t = fastcrc._tables_for(e)
        k, k2 = fastcrc._shift(e, t, 9), fastcrc._shift(e, t, 10)
        joins = record_splits(monkeypatch, lambda real, args: real(*args[:4], 512, k, k2))
        assert self.until(lambda: 1 in joins, lambda: self.once(e, want)), joins

    def test_caller_takes_everything_back(self, split_twin, monkeypatch):
        # in a forked child pinned to one CPU the child's worker, started there, shares
        # the caller's CPU, so a caller that joins at once mostly finds it not started;
        # one that sleeps a little first may find it started and off the CPU once the
        # caller wakes, and waits for it; one that sleeps long enough finds it done.
        # Even time.sleep(0) blocks the caller for an instant, in which the worker takes
        # the job, so a caller that joins at once does not call it.  The child's engine
        # takes no split on one CPU, so it calls the split entry itself
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("no affinity masks here")
        e, want = self.entry_and_digest()
        joins, digests = record_splits(monkeypatch), set()

        def op(pause):
            digests.add(split_directly(e, self.M, pause)[0])

        def child():
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            self.until(lambda: 0 in joins, lambda: op(0))
            for _ in range(20):
                op(0.0002)
            self.until(lambda: 3 in joins, lambda: op(0.01))
            return digests, joins

        digests, joins = forked(child)
        assert digests == {want} and 0 in joins and 3 in joins

    def test_chunk_under_1kib_takes_no_split(self, split_twin, monkeypatch):
        # a split's H2 and T are 512 bytes or more, so a chunk under 1 KiB takes the loop
        # whatever the floor, and absorb does not look the floor up for it
        e = params.entry_for_aligned_bits(self.E_BITS)
        monkeypatch.setattr(fastcrc, "_SPLIT_BYTES", 512)
        eng = fastcrc.engine_init(e).absorb(self.M[:600])
        assert eng.finish() == classifier.classify(self.M[:600], e) and eng.splits == 0
        monkeypatch.delattr(fastcrc, "_SPLIT_BYTES")
        eng = fastcrc.engine_init(e).absorb(self.M[:1023])
        with pytest.raises(NameError, match="_SPLIT_BYTES"):
            eng.absorb(self.M[:1024])
        assert eng.consumed == 1023

    def test_non_bytes_chunk_is_joined_before_absorb_returns(self, split_twin, monkeypatch):
        # a bytearray may change once absorb returns, so its split is joined first; a
        # bytes chunk's stays pending until the next entry point
        e, want = self.entry_and_digest()
        joins = record_splits(monkeypatch)
        chunk = bytearray(self.M)
        eng = fastcrc.engine_init(e).absorb(chunk)
        assert len(joins) == 1
        chunk[:] = bytes(len(chunk))
        assert eng.finish().data == want and len(joins) == 1
        eng = fastcrc.engine_init(e).absorb(self.M)
        assert len(joins) == 1 and eng.consumed == len(self.M)
        assert eng.register == int.from_bytes(want, "big") and len(joins) == 2
        assert (eng.splits, eng.finish().data) == (1, want)

    def test_entry_points_join(self, split_twin, monkeypatch):
        # _reg joins a pending split, as absorb, finish and register do, so the
        # register it hands over is the whole chunk's
        e, want = self.entry_and_digest()
        joins = record_splits(monkeypatch)
        w = fastcrc._tables_for(e).words
        words = fastcrc._to_words(int.from_bytes(want, "big") << 64 * w - e.degree, w)
        eng = fastcrc.engine_init(e).absorb(self.M)
        assert joins == [] and bytes(eng._reg) == words.tobytes() and len(joins) == 1
        assert eng.finish().data == want and eng.splits == 1

    def test_dropped_engine_frees_the_worker(self, split_twin, monkeypatch):
        # the pending split is joined when the engine goes, and the worker serves the
        # next engine
        e, want = self.entry_and_digest()
        joins = record_splits(monkeypatch)
        eng = fastcrc.engine_init(e).absorb(self.M)
        del eng
        gc.collect()
        assert joins == []  # joined by the split's own dealloc, not the engine
        assert self.until(lambda: any(joins), lambda: self.once(e, want)), joins

    def test_fork_while_a_split_is_pending(self, split_twin, monkeypatch):
        # the child's copy of the job has no worker: its join takes it all back, frees
        # the worker flag, and the child's own worker serves its later splits
        e, want = self.entry_and_digest()
        joins = record_splits(monkeypatch)
        eng = fastcrc.engine_init(e).absorb(self.M)

        def child():
            digests = {eng.finish().data}
            joined = list(joins)
            joins.clear()
            self.until(lambda: any(joins), lambda: digests.add(self.once(e, want)))
            return digests, joined, joins

        digests, joined, later = forked(child)
        assert digests == {want} and joined == [0] and any(later)
        assert eng.finish().data == want and len(joins) == 1

    def test_fork_while_the_worker_runs(self, split_twin, monkeypatch):
        # the worker is on a long H1 at the fork; the child, pinned to one CPU, takes
        # its copy of the job all back, then its own worker serves splits whose callers
        # sleep after the post, so their joins find it started and wait for it; the
        # child's engines take no split on one CPU, so it calls the split entry itself
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("no affinity masks here")
        e, want = self.entry_and_digest()
        t = fastcrc._tables_for(e)
        k, k2 = fastcrc._shift(e, t, 9), fastcrc._shift(e, t, 10)
        joins = record_splits(monkeypatch, lambda real, args: real(*args[:4], 512, k, k2))
        eng = fastcrc.engine_init(e).absorb(self.M)

        def child():
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            digests = {eng.finish().data}
            joined = list(joins)
            joins.clear()

            self.until(lambda: any(joins),
                       lambda: digests.add(split_directly(e, self.M, 0.0002)[0]))
            return digests, joined, joins

        digests, joined, later = forked(child)
        assert digests == {want} and joined == [0] and any(later)
        assert eng.finish().data == want and len(joins) == 1

    @pytest.mark.parametrize("q", [512 << j for j in range(6)])
    def test_every_share_gives_the_same_digest(self, split_twin, monkeypatch, q):
        # the share rule picks q from 512 up to n / 4, 16 KiB here
        e, want = self.entry_and_digest()
        t = fastcrc._tables_for(e)
        j = q.bit_length() - 1
        k, k2 = fastcrc._shift(e, t, j), fastcrc._shift(e, t, j + 1)
        joins = record_splits(monkeypatch, lambda real, args: real(*args[:4], q, k, k2))
        digests = {self.once(e, want) for _ in range(4)}
        eng = fastcrc.engine_init(e).absorb(self.M)
        time.sleep(0.005)
        assert digests | {eng.finish().data} == {want} and len(joins) == 5

    def test_the_share_follows_the_joins(self, split_twin, monkeypatch):
        # a stream that hashes or sleeps between absorbs finds the worker done at each
        # join, and its q falls by half a chunk to 512; an absorb-only stream joins while
        # the worker still runs, and its q stays at n / 4
        e, _ = self.entry_and_digest()
        shares = []
        record_splits(monkeypatch, lambda real, args: shares.append(args[4]) or real(*args))

        def sleepy():
            eng = fastcrc.engine_init(e)
            for _ in range(8):
                eng.absorb(self.M)
                time.sleep(0.005)
            return eng

        assert self.until(lambda: 512 in shares, sleepy), shares
        medians = []

        def absorb_only():
            shares.clear()
            eng = fastcrc.engine_init(e)
            for _ in range(16):
                eng.absorb(self.M)
            eng.finish()
            assert shares[0] == len(self.M) // 4
            medians.append(sorted(shares)[len(shares) // 2])

        # a caller that another process holds off the CPU may find the worker done
        assert self.until(lambda: len(self.M) // 4 in medians, absorb_only), medians

    def test_engine_on_another_thread_while_one_owns_the_worker(self, split_twin,
                                                                monkeypatch):
        # a's pending split owns the worker, so b's runs on b's thread; a is joined on
        # b's thread, which frees the worker for the splits after
        e, want = self.entry_and_digest()
        joins = record_splits(monkeypatch)
        engines = {}

        def run(name, op):
            thread = threading.Thread(target=lambda: engines.__setitem__(name, op()))
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive()

        run("a", lambda: fastcrc.engine_init(e).absorb(self.M))
        run("b", lambda: (fastcrc.engine_init(e).absorb(self.M).finish().data,
                          engines["a"].finish().data))
        a = engines["a"]
        assert engines["b"] == (want, want) and (a.splits, a.consumed) == (1, len(self.M))
        assert joins[0] == 0 and len(joins) == 2  # b's, on its own thread, then a's
        assert self.until(lambda: any(joins), lambda: self.once(e, want)), joins


class TestPythonEngineRunsOneThread:
    """The pure-Python engine calls its tables' loop alone, whatever tables it is given,
    so over the module's carry-less tables it never splits and its counters stay 0."""

    @pytest.mark.parametrize("variant", ["vpclmul-split", "clmul-split"])
    def test_carryless_tables_take_no_split(self, monkeypatch, variant):
        use_path(monkeypatch, variant)
        calls = []
        spy(monkeypatch, "split", lambda real, args: calls.append(args) or real(*args))
        e = params.entry_for_aligned_bits(1744)
        tables = fastcrc._tables_for(e)
        m = random.Random(51).randbytes(4 * TEST_SPLIT_BYTES)
        below, above = TEST_SPLIT_BYTES - 1, 3 * TEST_SPLIT_BYTES
        # bytes, bytearray and non-contiguous views, each below and above the split floor
        chunks = [m[:below], m[:above], bytearray(m[:below]), bytearray(m[:above]),
                  memoryview(m)[:2 * below:2], memoryview(m)[::2]]
        eng = fastcrc._PyCrcEngine(e, tables)
        for chunk in chunks:
            eng.absorb(chunk)
        whole = b"".join(map(bytes, chunks))
        assert calls == [] and eng.splits == eng.splits_taken == 0
        assert eng.consumed == len(whole)
        assert eng.finish() == classifier.classify(whole, e)
        # the control: the module's engine over the same tables reaches the spy
        assert fastcrc.CrcEngine(e, tables).absorb(m).finish() == classifier.classify(m, e)
        assert len(calls) == 1

    def test_classify_stats_reads_no_split(self, monkeypatch, capsys, tmp_path):
        use_path(monkeypatch, "python")
        monkeypatch.setattr(fastcrc, "_SPLIT_BYTES", TEST_SPLIT_BYTES)
        f = tmp_path / "m.bin"
        f.write_bytes(random.Random(52).randbytes(3 * TEST_SPLIT_BYTES))
        assert cli.dispatch(["classify", "--bits", "1744", "--in", str(f), "--stats"]) == 0
        out, err = capsys.readouterr()
        want = classifier.classify(f.read_bytes(), params.entry_for_aligned_bits(1744))
        assert out.strip() == want.hex()
        fields = err.split()
        assert "path=python" in fields and "splits=0/0" in fields


@pytest.fixture(params=["vpclmul", "vpclmul-split", "clmul", "clmul-split", "native"])
def kernel_path(request, monkeypatch):
    """The path fixture's variants that call the extension module."""
    use_path(monkeypatch, request.param)
    return request.param


class TestBinding:
    @pytest.mark.parametrize("case", ["short register", "long register", "read-only register",
                                      "short table", "non-buffer chunk"])
    def test_bad_input_raises_before_any_write(self, kernel_path, case):
        # the module checks every buffer before it writes a word, and the engine counts
        # nothing: the register is resized in place, and an engine's tables, fixed at
        # construction, are a table one word short, or a loop and split entry that hand
        # the module a read-only view of the register; 5,000 bytes take the block step
        # on vpclmul and the split entry on the -split variants
        e = params.entry_for_aligned_bits(1744)
        w = (e.degree + 63) // 64
        t = fastcrc._tables_for(e)

        def read_only(real):
            return lambda reg, *args: real(memoryview(reg).toreadonly(), *args)

        for chunk in (FOX, random.Random(45).randbytes(5000)):
            tables, error = t, ValueError
            if case == "short table":
                tables = t._replace(main=t.main[:-1])
            elif case == "read-only register":
                split = t.split and read_only(t.split)
                tables, error = t._replace(loop=read_only(t.loop), split=split), TypeError
            eng = fastcrc.CrcEngine(e, tables)
            if tables is t:
                eng.absorb(b"abc")
            reg = eng._reg
            if case == "short register":
                del reg[8 * (w - 1):]
            elif case == "long register":
                reg.extend(bytes(16))
            elif case == "non-buffer chunk":
                chunk, error = 5, TypeError
            consumed, before = eng.consumed, bytes(reg)
            with pytest.raises(error):
                eng.absorb(chunk)
            assert eng.consumed == consumed and eng._reg == before, case

    def test_register_is_checked_at_each_read(self, kernel_path):
        # the engine reads its register itself, with the module's checks, and no table or
        # module function reads it: a register one word short or long, resized in place after
        # 5,000 bytes (a block step on vpclmul, a split on the -split variants), makes
        # `register` and `finish` raise and keeps its bytes, and so do tables of another size
        e = params.entry_for_aligned_bits(1744)
        m = random.Random(46).randbytes(5000)
        for longer in (True, False):
            eng = fastcrc.CrcEngine(e, fastcrc._tables_for(e)).absorb(m)
            reg = eng._reg
            if longer:
                reg.extend(bytes(8))
            else:
                del reg[-8:]
            before = bytes(reg)
            with pytest.raises(ValueError, match="^reg must hold ceil"):
                eng.register
            with pytest.raises(ValueError, match="^reg must hold ceil"):
                eng.finish()
            assert eng._reg == before
        narrow = fastcrc._tables_for(params.entry_for_aligned_bits(64))
        with pytest.raises(ValueError, match="^reg must hold ceil"):
            fastcrc.CrcEngine(e, narrow).register
        assert "digest" not in fastcrc.CrcTables._fields
        assert not hasattr(fastcrc._kernel, "digest")

    def test_each_argument_is_checked(self, kernel_path):
        # direct calls: each wrong argument raises, and neither the register nor the guard
        # words around it are written
        path = kernel_path.partition("-")[0]
        module = fastcrc._kernel
        e = params.entry_for_aligned_bits(1744)
        t = build_tables(e)
        w, cw, loop = t.words, fastcrc._CODEWORDS, t.loop
        guarded = bytearray(8 * (w + 2))
        reg = memoryview(guarded)[8:8 + 8 * w]
        loop(reg, t.main, cw, FOX)
        want = bytes(guarded)
        misaligned = memoryview(bytearray(8 * w + 8))[1:1 + 8 * w]
        claims_more = array("Q", t.main)
        claims_more[0] = w + 8
        # a 73-word register and tables long enough for it on each path: one word past the
        # bound of B / 2 = 72 that every call checks
        wide = 73
        guarded_wide = bytearray(8 * (wide + 2))
        wide_reg = memoryview(guarded_wide)[8:8 + 8 * wide]
        wide_tail = 9 + 8 * ((wide + 7) // 8)
        too_wide = {kind: array("Q", [wide]) + array("Q", bytes(8 * (words - 1)))
                    for kind, words in (("native", 1 + 512 * wide), ("clmul", wide_tail),
                                        ("vpclmul", wide_tail + module.TAIL_WORDS))}
        calls = [
            (TypeError, loop, (reg, t.main, cw)),
            (TypeError, loop, (reg, t.main, cw, 5)),
            (TypeError, loop, (reg, 5, cw, FOX)),
            (TypeError, loop, (reg, t.main, memoryview(cw)[::2], FOX)),
            (ValueError, loop, (misaligned, t.main, cw, FOX)),
            (ValueError, loop, (reg, claims_more, cw, FOX)),
            (ValueError, loop, (reg, t.main, cw[:255], FOX)),
            (ValueError, loop, (reg, t.main, cw, reg)),  # reg overlaps the data
            (TypeError, loop, (bytes(8 * w), t.main, cw, FOX)),  # a read-only register
            (ValueError, loop, (wide_reg, too_wide[path], cw, FOX)),
            (ValueError, module.fill, (array("Q", [w]) * (512 * w),)),
            (TypeError, module.fill, (bytes(8 * (1 + 512 * w)),)),
        ]
        bad_tables = []
        if path != "native":
            tail = 9 + 8 * ((w + 7) // 8)
            if path == "clmul":  # a clmul table ends after G: cut it one word short
                bad_tables.append(t.main[:tail - 1])
            else:  # a table cut after G, inside mu''s sums and G's, and one word short
                bad_tables += [t.main[:tail], t.main[:tail + 8 + 3 * MU_SLOT + 5],
                               t.main[:tail + 8 + SUMS * MU_SLOT + 6 * G_SLOT], t.main[:-1]]
            # fill_carryless writes a vpclmul table's tail: a clmul table has none
            calls += [(ValueError, module.fill_carryless, (bad,))
                      for bad in [*bad_tables, t.main[:tail]]]
            calls.append((TypeError, module.fill_carryless, (t.main.tobytes(),)))
            calls.append((ValueError, module.fill_carryless, (too_wide["vpclmul"],)))
        else:
            calls.append((ValueError, module.fill, (too_wide["native"],)))
        calls += [(ValueError, loop, (reg, bad, cw, FOX)) for bad in bad_tables]
        if t.split is not None:
            split, combine = t.split, t.combine
            k, k2, zero = fastcrc._shift(e, t, 10), fastcrc._shift(e, t, 11), bytes(8 * w)
            n = 3 * 1024
            calls += [
                (ValueError, split, (reg, t.main, cw, bytes(n), n // 2 + 1, k, k2)),
                (ValueError, split, (reg, t.main, cw, bytes(n), 1024, k[:-1], k2)),
                (ValueError, split, (reg, t.main, cw, bytes(n), 1024, k, k2[:-1])),
                (ValueError, split, (reg, t.main, cw, bytes(n), 1024, k, reg)),  # reg is also k2
                (TypeError, split, (reg, t.main, cw, bytes(n), 1024, k)),
                (TypeError, split, (bytes(8 * w), t.main, cw, bytes(n), 1024, k, k2)),
                (ValueError, combine, (reg, t.main, k, zero[:-8])),
                (ValueError, combine, (reg, t.main, reg, zero)),  # reg is also k
            ]
            calls += [(ValueError, split, (reg, bad, cw, bytes(n), 1024, k, k2))
                      for bad in bad_tables]
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
        loaded = [fastcrc.engine_init(e).absorb(FOX).finish().data for e in entries]
        monkeypatch.setattr(fastcrc, "_kernel", kernel)
        monkeypatch.setattr(fastcrc, "_table_cache", {})
        for e, want in zip(entries, loaded):
            eng = fastcrc.engine_init(e)
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

    def test_build_prunes_stale_builds(self, tmp_path):
        # each edit of the sources leaves a build under another hash; a new build deletes
        # the others for this interpreter and under the older bare .so name, and leaves
        # another interpreter's build, a build in progress and other files
        if shutil.which("cc") is None:
            pytest.skip("no cc on PATH")
        cache = tmp_path / "cache"
        cache.mkdir()
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        stale = {f"_absorb-0123456789abcdef{suffix}", "_absorb-fedcba9876543210.so"}
        kept = {"notes.txt", "_absorb-ubsan.so", f"_absorb-0123456789abcdef{suffix}.77.tmp",
                "_absorb-0123456789abcdef.cpython-399-x86_64-linux-gnu.so"}
        for name in stale | kept:
            (cache / name).write_bytes(b"not a shared object")
        kernel = fastcrc._load_kernel(cache)
        assert kernel is not None and kernel.carryless() == HOST_LEVEL
        (built,) = {f.name for f in cache.iterdir()} - kept
        assert built.startswith("_absorb-") and built.endswith(suffix) and built not in stale

    def test_prune_skips_a_build_already_deleted(self, monkeypatch, tmp_path):
        # another process pruning the same directory may delete a stale build between the
        # listing and the unlink: that is not an error, which would send the load to Python
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        gone = f"_absorb-0123456789abcdef{suffix}"
        monkeypatch.setattr(os, "listdir", lambda directory: [gone])
        fastcrc._prune(str(tmp_path / f"_absorb-fedcba9876543210{suffix}"), suffix)

    def test_portable_branch_builds_clean_and_matches(self, tmp_path):
        # off x86-64 the module compiles only its portable branch, whose table walk is the
        # one C path there: built here with __x86_64__ undefined after the system headers,
        # it compiles without a warning, has no carry-less function, and its engine gives
        # classify's digest on every entry, bound in a child process
        if shutil.which("cc") is None:
            pytest.skip("no cc on PATH")
        wrapper = tmp_path / "portable.c"
        wrapper.write_text(PORTABLE_WRAPPER)
        built = tmp_path / f"portable{importlib.machinery.EXTENSION_SUFFIXES[0]}"
        run = subprocess.run(["cc", *fastcrc._COMPILE, "-Wall", "-Wextra", "-Werror",
                              "-I", PYTHON_INCLUDE, "-I", str(fastcrc._PACKAGE),
                              "-o", str(built), str(wrapper)], capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        module = fastcrc._import(built)
        assert module.carryless() == 0
        names = dir(module)
        assert {"absorb", "fill", "carryless", "bind", "CrcEngine"} <= set(names)  # it sees them
        assert not [name for name in names if name.startswith(("absorb_split_", "combine_"))
                    or name.endswith("clmul") or name == "fill_carryless"]
        sweep = subprocess.run([sys.executable, "-c", PORTABLE_SWEEP, str(built)],
                               capture_output=True, text=True, timeout=600,
                               env={**os.environ,
                                    "PYTHONPATH": str(Path(fastcrc.__file__).parents[1])})
        assert sweep.returncode == 0, sweep.stderr
        assert sweep.stdout.split() == [str(len(params.registry()) * 6)]

    def test_no_compiler_runs_the_python_twin(self, tmp_path):
        # a fresh interpreter over a copy of the package with no build cached and no cc on
        # PATH: the engine, engine_init and _tables_for are the pure-Python twins, and they
        # reproduce the c2 vectors
        shutil.copytree(fastcrc._PACKAGE, tmp_path / "badderlocks",
                        ignore=shutil.ignore_patterns("__pycache__"))
        (tmp_path / "bin").mkdir()
        probe = ("from badderlocks import cli, fastcrc\n"
                 "assert fastcrc._kernel is None\n"
                 "assert fastcrc.CrcEngine is fastcrc._PyCrcEngine\n"
                 "assert fastcrc.engine_init is fastcrc._py_engine_init\n"
                 "assert fastcrc._tables_for is fastcrc._py_tables_for\n"
                 "raise SystemExit(max(cli.dispatch(['vectors', '--suite', s, '--check'])\n"
                 "                     for s in ('c2-fox', 'c2-small', 'c2-mixed')))\n")
        run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             cwd=tmp_path, timeout=300,
                             env={**os.environ, "PATH": str(tmp_path / "bin"),
                                  "PYTHONPATH": str(tmp_path)})
        assert run.returncode == 0, run.stdout + run.stderr
        assert run.stdout.split("\n")[:-1] == ["30/30 vectors match", "20/20 vectors match",
                                               "2/2 vectors match"]

    def test_warm_import_loads_no_dataclasses_or_sysconfig(self):
        # with the module cached, importing the package builds nothing, so it needs
        # neither sysconfig (for Python.h) nor dataclasses and the inspect they pull in;
        # the build is named without hashlib, and the CLI imports hashlib and json only in
        # the commands that use them
        if fastcrc._kernel is None:
            pytest.skip("no kernel is cached here, so every import tries a build")
        probe = ("import sys; before = set(sys.modules); import badderlocks\n"
                 "print(sorted({'dataclasses', 'inspect', 'sysconfig', 'hashlib', '_hashlib'}\n"
                 "             & set(sys.modules) - before))\n"
                 "import badderlocks.cli\n"
                 "print(sorted({'hashlib', '_hashlib', 'json'} & set(sys.modules) - before))")
        run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(Path(fastcrc.__file__).parents[1])})
        assert run.returncode == 0, run.stderr
        assert run.stdout.split("\n") == ["[]", "[]", ""]

    def test_build_name_covers_every_input(self, monkeypatch, tmp_path):
        # the build's name changes with either C source, the compile command, the machine
        # and the interpreter's suffix, and stays the same while none of them changes;
        # no build is made here
        names = []

        def no_compile(command, path):
            names.append(os.path.basename(path))
            return False

        def name_with(*patch):
            """The build's name, with (owner, attribute, value) patched if given."""
            with pytest.MonkeyPatch.context() as mp:
                if patch:
                    mp.setattr(*patch)
                assert fastcrc._load_kernel(tmp_path, "cc", PYTHON_INCLUDE) is None
            return names[-1]

        monkeypatch.setattr(fastcrc, "_compile", no_compile)
        sources = []
        for source in fastcrc._SOURCES:
            sources.append(tmp_path / os.path.basename(source))
            sources[-1].write_bytes(Path(source).read_bytes())
        monkeypatch.setattr(fastcrc, "_SOURCES", tuple(sources))
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        base = name_with()
        assert re.fullmatch(rf"_absorb-[0-9a-f]{{16}}{re.escape(suffix)}", base)
        assert name_with() == base
        renamed = []
        for source in sources:
            text = source.read_bytes()
            source.write_bytes(text + b"\n")
            renamed.append(name_with())
            source.write_bytes(text)
        renamed.append(name_with(fastcrc, "_COMPILE", (*fastcrc._COMPILE, "-g")))
        machine = os.uname_result((*os.uname()[:4], "elsewhere"))
        renamed.append(name_with(os, "uname", lambda: machine))
        renamed.append(name_with(importlib.machinery, "EXTENSION_SUFFIXES", [".other" + suffix]))
        assert name_with() == base
        stems = [name[:len("_absorb-") + 16] for name in [base, *renamed]]
        assert len(set(stems)) == len(stems), renamed

    def test_sanitized_build_matches_vectors(self, sanitized):
        # warnings are errors, and any undefined behaviour (a shift by 64, an
        # out-of-range index) aborts the child
        lib = sanitized("undefined")
        run = subprocess.run([sys.executable, "-c", SANITIZED_SWEEP, str(lib)],
                             capture_output=True, text=True, timeout=600,
                             env={**os.environ, "PYTHONPATH": str(Path(fastcrc.__file__).parents[1])})
        assert run.returncode == 0, run.stderr
        paths = [p for p in KERNEL_PATHS if host_runs(p)]
        # the three c2 suites, the sweep, then the register-width and the one-block edges
        per_path = 52 + 30 * 26 + 7 * 81 + 7 * 3
        splits = (30 * 5 + 1) * len([p for p in paths if p in CARRYLESS_PATHS])
        assert run.stdout.split() == [*paths, str(per_path * len(paths) + splits)]

    def test_thread_sanitizer_finds_no_race(self, sanitized):
        # CPython does not run under an LD_PRELOADed libtsan, so a C program
        # includes the kernel source, posts splits from two threads and joins them on
        # the posting thread or another one
        run = run_sanitized(sanitized("thread"), "h2")
        mismatches, *joins, plain, extra = map(int, run.stdout.split())
        # joins counts the posted splits by how the join went: 0 (the caller took it all
        # back), 1 (it took H2), 2 (it waited for the worker) or 3 (the worker was done);
        # the joins made at once took H2
        assert mismatches == 0 and joins[1] > 0
        assert sum(joins) + plain == (2 * 40 + 1) * len(TSAN_CASES) + extra
        # on one CPU a worker that has started is mostly off the CPU while the caller
        # joins, so the join spins, then sleeps until the worker is done
        if hasattr(os, "sched_setaffinity"):
            one_cpu = {min(os.sched_getaffinity(0))}
            again = subprocess.run([run.args[0], "late"], capture_output=True, text=True,
                                   timeout=600, preexec_fn=lambda: os.sched_setaffinity(0, one_cpu))
            assert "Sanitizer" not in again.stderr, again.stderr
            assert again.returncode == 0, again.stdout + again.stderr
            mismatches, *joins, plain, extra = map(int, again.stdout.split())
            assert mismatches == 0 and joins[1] + joins[2] + joins[3] > 0
            assert sum(joins) + plain == (2 * 40 + 1) * len(TSAN_CASES) + extra

    def test_address_sanitizer_finds_no_overread(self, sanitized):
        # the kernels load whole blocks of eight words, up to seven words below each
        # constant and past its last word; a C program copies each kernel's table, each
        # constant, message and register into buffers of exactly their size, so any such
        # load past what fastcrc builds, a clmul load past G's blocks too, is a
        # heap-buffer-overflow
        run = run_sanitized(sanitized("address"))
        mismatches, runs = map(int, run.stdout.split())
        assert mismatches == 0 and runs == 3 * len(ASAN_BITS) * HOST_LEVEL

    def test_avx512_stays_in_the_vpclmul_kernel(self):
        # a CPU with PCLMULQDQ but not AVX-512 runs every function but the vpclmul
        # kernels, the module's wrappers included, so no AVX-512 instruction may reach
        # them, even through a helper the compiler inlined or cloned; and the table loops
        # run on any x86-64 CPU.  The check reads the build the loader made and loaded.
        if os.uname().machine != "x86_64":
            pytest.skip("the carry-less kernels are compiled on x86-64 only")
        if fastcrc._kernel is None:
            pytest.skip("the C kernel is not loaded here (no working C compiler)")
        if shutil.which("objdump") is None:
            pytest.skip("needs objdump on PATH")
        listing = subprocess.run(["objdump", "-d", fastcrc._kernel.__file__], capture_output=True,
                                 text=True, check=True).stdout
        functions = disassembly(listing)
        for name in ("absorb_vpclmul", "block_step_vpclmul"):
            assert any(avx512(i) for i in functions[name]), name  # the check sees AVX-512
        # one placement rule: every function the two sources define, clones included,
        # starts on a cache line, wherever an edit elsewhere puts it.  The C runtime's and
        # libgcc's (__cpu_indicator_init, has_cpu_feature, set_cpu_feature) are not theirs
        source = "".join(map(Path.read_text, map(Path, fastcrc._SOURCES)))
        named = set(re.findall(r"\b(\w+)\(", source))
        starts = {name: int(at, 16) for at, name in
                  re.findall(r"^([0-9a-f]+) <([^>]+)>:$", listing, re.M)
                  if name.partition(".")[0] in named}
        assert {"absorb_vpclmul", "block_step_vpclmul", "combine_vpclmul", "combine_clmul",
                "split_join", "absorb", "PyInit__absorb"} <= set(starts)  # the check sees them
        assert not [name for name, at in starts.items() if at % 64], starts
        for name in ("PyInit__absorb", "py_absorb_vpclmul", "py_absorb_split_vpclmul",
                     "fill_carryless", "py_fill_carryless"):
            assert name in functions, name  # the check sees them
        for name, instructions in functions.items():
            if "vpclmul" not in name or name.startswith("py_"):
                assert not [i for i in instructions if avx512(i)], name
        for name in ("absorb", "fill"):
            assert not [i for i in functions[name] if "pclmul" in i[1]], name
        # a release build: no assert of CPython's header macros is compiled in
        calls = [i[1] for instructions in functions.values() for i in instructions
                 if i[1].startswith("call")]
        assert calls  # the check sees calls
        assert not [c for c in calls if "<__assert_fail" in c]


def kernel_constants(e, n2: int):
    """e's carry-less table, K_j and K_(j+1) for a second part of n2 = 2^j bytes, as fastcrc
    builds them for the kernels."""
    t, j = build_tables(e), n2.bit_length() - 1
    return t.main, fastcrc._shift(e, t, j), fastcrc._shift(e, t, j + 1)


def c_words(words) -> str:
    """A C initializer for an array of integers."""
    return "{%s}" % ", ".join(map(hex, words))


def tsan_source(kernel: str) -> str:
    """The ThreadSanitizer program over TSAN_CASES on the given carry-less kernel."""
    cases = []
    for bits, n, q in TSAN_CASES:
        table, k, k2 = kernel_constants(params.entry_for_aligned_bits(bits), q)
        cases.append("{%d, %d, %s, %s, %s}" % (n, q, c_words(table), c_words(k), c_words(k2)))
    return TSAN_PROGRAM % {"kernel": kernel, "codewords": c_words(fastcrc._CODEWORDS),
                           "cases": ",\n    ".join(cases)}


def path_table(e, path: str) -> array:
    """e's table as build_tables makes it on the given kernel path, whatever this CPU runs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fastcrc._kernel, "carryless", lambda: LEVELS[path])
        return build_tables(e).main


def asan_source() -> str:
    """The AddressSanitizer program over ASAN_BITS, which runs every carry-less kernel the
    host runs, each over its own table: the clmul table is the vpclmul table's start."""
    m = random.Random(44).randbytes(ASAN_LENGTHS[-1])
    cases = []
    for bits in ASAN_BITS:
        e = params.entry_for_aligned_bits(bits)
        _, k, k2 = kernel_constants(e, ASAN_SPLIT_PART)
        clmul, table = path_table(e, "clmul"), path_table(e, "vpclmul")
        assert clmul == table[:len(clmul)], bits
        pad = 64 * table[0] - e.degree
        want = [fastcrc._to_words(int.from_bytes(reference(e, m[:n]), "big") << pad, table[0])
                for n in ASAN_LENGTHS]
        cases.append("{{%d, %d}, %s, %s, %s, {%s}}" % (
            len(clmul), len(table), c_words(table), c_words(k), c_words(k2),
            ", ".join(map(c_words, want))))
    return ASAN_PROGRAM % {
        "codewords": c_words(fastcrc._CODEWORDS), "message": c_words(m),
        "lengths": ", ".join(map(str, ASAN_LENGTHS)), "part": ASAN_SPLIT_PART,
        "cases": ",\n    ".join(cases)}


@pytest.fixture(scope="class")
def sanitized(tmp_path_factory):
    """A function from a sanitizer, "undefined", "thread" or "address", to its build of
    the kernel: the UBSan extension module, or the TSan or ASan C program, which includes
    the kernel source.  The three are compiled side by side, and all are done before this
    fixture returns, so that no compile overlaps the timing-sensitive runs, which the
    tests make one at a time.  A build this host cannot make skips the test that asks."""
    tmp = tmp_path_factory.mktemp("sanitized")
    builds, skips = {}, {}

    def start(sanitizer: str, *command: str) -> None:
        builds[sanitizer] = subprocess.Popen(
            ["cc", "-O1", "-g", f"-fsanitize={sanitizer}", "-pthread", "-Wall", "-Wextra",
             "-Werror", *command, "-o", str(tmp / sanitizer)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)

    if shutil.which("cc") is None:
        skips = dict.fromkeys(("undefined", "thread", "address"), "no cc on PATH")
    else:  # the longest compile first, beside the programs' sources being written
        start("undefined", "-shared", "-fPIC", "-fno-sanitize-recover=all",
              "-I", PYTHON_INCLUDE, str(fastcrc._SOURCES[0]))
    loaded = [p for p in CARRYLESS_PATHS if host_runs(p)]
    sources = {"thread": lambda: tsan_source(loaded[0]), "address": asan_source}
    for sanitizer, source in sources.items():
        if sanitizer in skips:
            continue
        if not loaded:
            skips[sanitizer] = "no carry-less kernel is loaded here"
            continue
        probe = tmp / f"probe-{sanitizer}"
        probe.with_suffix(".c").write_text("int main(void) { return 0; }\n")
        built = subprocess.run(["cc", f"-fsanitize={sanitizer}", "-o", str(probe),
                                str(probe.with_suffix(".c"))], capture_output=True)
        if built.returncode or subprocess.run([str(probe)]).returncode:
            skips[sanitizer] = f"no working -fsanitize={sanitizer} here"
            continue
        with pytest.MonkeyPatch.context() as mp:  # the fastest carry-less path's tables
            use_path(mp, loaded[0])
            (tmp / f"{sanitizer}.c").write_text(source())
        start(sanitizer, "-I", str(fastcrc._PACKAGE), str(tmp / f"{sanitizer}.c"))
    errors = {name: build.communicate()[1] for name, build in builds.items()}

    def build(sanitizer: str) -> Path:
        if sanitizer in skips:
            pytest.skip(skips[sanitizer])
        assert builds[sanitizer].returncode == 0, errors[sanitizer]
        return tmp / sanitizer

    return build


def run_sanitized(program: Path, *args: str) -> subprocess.CompletedProcess:
    """Run a sanitizer's program with args; it must exit 0 with no report."""
    run = subprocess.run([str(program), *args], capture_output=True, text=True, timeout=600)
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


# The module's portable branch, which hosts other than x86-64 compile, built on any host:
# the system and Python headers, then the module source with __x86_64__ undefined.
PORTABLE_WRAPPER = """
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>
#include <unistd.h>
#if defined(__linux__)
#include <sched.h>
#endif
#undef __x86_64__
#include "_absorbmodule.c"
"""

# Run in a child process against the portable build: every entry at the filler's edges
# and over a chunk of more than _SPLIT_BYTES, which the table walk takes on one thread.
PORTABLE_SWEEP = """
import random, sys
from badderlocks import classifier, fastcrc, params
fastcrc._kernel = fastcrc._import(sys.argv[1])
fastcrc.CrcEngine, fastcrc.engine_init, fastcrc._tables_for = fastcrc._kernel.bind(vars(fastcrc))
fastcrc._table_cache.clear()
rng = random.Random(47)
checked = 0
for e in params.registry():
    for n in (0, 7, 8, 9, 100, 20000):
        m = rng.randbytes(n)
        eng = fastcrc.engine_init(e)
        assert type(eng) is fastcrc.CrcEngine and eng.path == "native", eng
        assert eng.absorb(m).finish() == classifier.classify(m, e), (e.index, n)
        assert eng.splits == 0, (e.index, n)
        checked += 1
print(checked)
"""


# Run in a child process against a sanitizer build of the kernel, so that
# undefined behaviour aborts the child instead of the test run.
SANITIZED_SWEEP = """
import random, sys, time
from badderlocks import classifier, cli, fastcrc, params
fastcrc._kernel = fastcrc._import(sys.argv[1])
bound = fastcrc._kernel.bind(vars(fastcrc))
engine_type, engine_init, tables_for = bound
# the type and functions the normal build bound at import
assert engine_type is not fastcrc.CrcEngine and engine_init is not fastcrc.engine_init
assert engine_init.__self__ is tables_for.__self__ is fastcrc._kernel
fastcrc.CrcEngine, fastcrc.engine_init, fastcrc._tables_for = bound
built = []  # the entries the sanitizer build's tables_for built tables for
build_tables = fastcrc.build_tables
fastcrc.build_tables = lambda e: built.append(e) or build_tables(e)


def engine(e):  # a fresh engine for e, from the sanitizer build's engine_init and type
    assert fastcrc.engine_init is engine_init and fastcrc.CrcEngine is engine_type
    eng = engine_init(e)
    assert type(eng) is engine_type, type(eng)
    return eng


levels = range(fastcrc._kernel.carryless(), -1, -1)  # the paths this CPU runs, fastest first
paths = [("native", "clmul", "vpclmul")[level] for level in levels]
# entries whose register ends at or just past a whole block of eight 64-bit words, or
# fills less than one (w = 1, 7, 8, 10, 28, 44, 67; no entry has w = 9)
block_edges = [params.entry_for_aligned_bits(b) for b in (64, 416, 512, 608, 1744, 2784, 4288)]
rng = random.Random(37)
checked = 0
for level, path in zip(levels, paths):
    fastcrc._kernel.carryless = lambda: level  # the probe build_tables reads picks this path
    fastcrc._table_cache.clear()
    built.clear()
    assert fastcrc._tables_for is tables_for
    for suite in ("c2-fox", "c2-small", "c2-mixed"):
        for bits, m, want in cli._load_suite(suite):
            eng = engine(params.entry_for_aligned_bits(bits))
            assert eng.path == path and eng.absorb(m).finish().hex() == want, (suite, bits, m)
            assert eng.tables is fastcrc._table_cache[eng.entry.index][1]
            checked += 1
    # tables_for built each entry's tables once, through the namespace's build_tables
    assert built and len(built) == len(set(built)), [e.index for e in built]
    for e in params.registry():
        for n in [*range(18), 63, 64, 65, 71, 72, 73, 128, 1000]:
            m = rng.randbytes(n)
            eng, pos = engine(e), 0
            while pos < n:
                step = rng.randrange(1, n - pos + 1)
                eng.absorb(m[pos:pos + step])
                pos += step
            assert eng.finish().data == classifier.classify(m, e).data, (path, e.index, n)
            checked += 1
    for e in block_edges:
        for n in range(81):
            m = rng.randbytes(n)
            eng = engine(e)
            eng.absorb(m[:n // 3]).absorb(m[n // 3:])
            assert eng.finish().data == classifier.classify(m, e).data, (path, e.index, n)
            checked += 1
    block = 1024  # B = 144 words of codewords
    for e in block_edges:  # one call at one block +-1, where vpclmul takes the block step
        for n in range(block - 1, block + 2):
            m = rng.randbytes(n)
            eng = engine(e).absorb(m)
            assert eng.finish().data == classifier.classify(m, e).data, (path, e.index, n)
            checked += 1
    if path != "native":  # the two-thread entry and the combine step
        fastcrc._SPLIT_BYTES = 1024
        splits = []  # each split the engine asked for; join() gives the same again

        def spied(e):  # what the engine calls, however the tables were cached
            t = tables_for(e)
            return t._replace(split=lambda *args: splits.append(t.split(*args)) or splits[-1])

        fastcrc._tables_for = spied
        for e in params.registry():
            for n in (1024, 1025, 2048, 3072, 5000):
                m = rng.randbytes(n)
                cut = rng.randrange(n - 1023)
                eng = engine(e).absorb(m[:cut]).absorb(m[cut:])
                assert eng.finish().data == classifier.classify(m, e).data, (path, e.index, n)
                checked += 1
        # above, a caller that joins at once often takes the worker's parts back; a
        # stream of 64 KiB chunks keeps the worker awake, and it takes parts once the
        # scheduler has it on the other CPU
        e, m = params.entry_for_aligned_bits(1744), rng.randbytes(4 * 65536)
        want, deadline = classifier.classify(m, e).data, time.monotonic() + 10
        splits.clear()
        while not any(split.join() for split in splits) and time.monotonic() < deadline:
            eng = engine(e)
            for i in range(0, len(m), 65536):
                eng.absorb(m[i:i + 65536])
            assert eng.finish().data == want, path
        assert any(split.join() for split in splits), path
        checked += 1
        fastcrc._tables_for, fastcrc._SPLIT_BYTES = tables_for, sys.maxsize
print(" ".join(paths), checked)
"""


# The ThreadSanitizer program's cases, (bits, n, q): every part of 1 KiB (one block)
# or more takes the block step on vpclmul; in the last two cases H2 and T are under
# one block; q is one the share rule may pick, a power of two from 512 up to n / 4,
# the last case's the floor of 512.
TSAN_CASES = ((64, 20000, 4096), (1744, 40000, 8192), (4288, 16384, 4096),
              (2784, 30000, 4096), (416, 3000, 512), (1744, 40000, 512))

# Two threads each run every case 40 times: a plain absorb and a split one from
# the same nonzero register, which must agree.  On even rounds the split is joined
# at once, as by an absorb-only stream, whose joins take H2 while the worker is on
# H1; on odd rounds after the plain absorb, as by a caller that hashes between
# absorbs.  Then the main thread posts each case once and another thread joins it.
# A round that finds the worker owned runs the plain loop.  Until a join has taken
# H2 (argument "h2") or found the worker started ("late", where the caller sleeps
# between the post and the join), more joins go on, for at most 10 s.  Prints
# mismatches, the posted splits by how the join went (0 to 3), the splits that ran
# the plain loop, and the joins added.
TSAN_PROGRAM = """
#include "_absorb.c"
#include <stdio.h>
#include <time.h>

#define MAX_W 67
#define MAX_TABLE CARRYLESS_WORDS(MAX_W)
#define CASES (sizeof cases / sizeof cases[0])
static const uint16_t codewords[256] = %(codewords)s;
static const struct {
    size_t n, q;
    uint64_t table[MAX_TABLE], k[MAX_W], k2[MAX_W];
} cases[] = {
    %(cases)s
};
static uint8_t data[40000 + 100];
static atomic_int mismatches, joins[4], plain;

/* Count a joined split. */
static void count(int posted, int outcome, int mismatch)
{
    atomic_fetch_add(posted ? &joins[outcome] : &plain, 1);
    if (mismatch)
        atomic_fetch_add(&mismatches, 1);
}

/* A plain absorb of case c from start into a, and a split one into b, from the
 * same register; the split joined at once if early, else after the plain one.
 * A caller that sleeps after the post (early 2) gives its CPU to the worker and
 * takes it back on waking, so on one CPU it mostly finds the worker started. */
static void check(size_t c, size_t start, int early)
{
    uint64_t a[MAX_W] = {0}, b[MAX_W] = {0};
    struct split sp;
    absorb_%(kernel)s(a, cases[c].table, codewords, data, start);
    memcpy(b, a, sizeof a);
    int posted = absorb_split_%(kernel)s(&sp, b, cases[c].table, codewords, data + start,
                                         cases[c].n, cases[c].q, cases[c].k, cases[c].k2);
    if (early == 2)
        usleep(200);
    int outcome = early ? split_join(&sp) : 0;
    absorb_%(kernel)s(a, cases[c].table, codewords, data + start, cases[c].n);
    if (!early)
        outcome = split_join(&sp);
    count(posted, outcome, memcmp(a, b, sizeof a));
}

static void *run(void *seed)
{
    for (int round = 0; round < 40; round++)
        for (size_t c = 0; c < CASES; c++)
            check(c, (size_t)seed + round, round %% 2 == 0);
    return NULL;
}

static void *join(void *sp) { return (void *)(intptr_t)split_join(sp); }

int main(int argc, char **argv)
{
    int late = argc > 1 && !strcmp(argv[1], "late");
    uint32_t x = 12345;
    for (size_t i = 0; i < sizeof data; i++)
        data[i] = (uint8_t)((x = x * 1103515245 + 12345) >> 16);
    pthread_t threads[2];
    for (size_t i = 0; i < 2; i++)
        pthread_create(&threads[i], NULL, run, (void *)(i * 7 + 1));
    for (size_t i = 0; i < 2; i++)
        pthread_join(threads[i], NULL);
    for (size_t c = 0; c < CASES; c++) {
        uint64_t a[MAX_W] = {0}, b[MAX_W] = {0};
        struct split sp;
        void *outcome;
        absorb_%(kernel)s(a, cases[c].table, codewords, data, cases[c].n);
        int posted = absorb_split_%(kernel)s(&sp, b, cases[c].table, codewords, data,
                                             cases[c].n, cases[c].q, cases[c].k, cases[c].k2);
        pthread_create(&threads[0], NULL, join, &sp);
        pthread_join(threads[0], &outcome);
        count(posted, (int)(intptr_t)outcome, memcmp(a, b, sizeof a));
    }
    int extra = 0;
    for (time_t deadline = time(NULL) + 10; time(NULL) < deadline;) {
        if (late ? atomic_load(&joins[1]) + atomic_load(&joins[2]) + atomic_load(&joins[3])
                 : atomic_load(&joins[1]))
            break;
        check(extra++ %% CASES, 1, late ? 2 : 1);
    }
    printf("%%d %%d %%d %%d %%d %%d %%d\\n", atomic_load(&mismatches), atomic_load(&joins[0]),
           atomic_load(&joins[1]), atomic_load(&joins[2]), atomic_load(&joins[3]),
           atomic_load(&plain), extra);
    return atomic_load(&mismatches) != 0;
}
"""


# The lengths the AddressSanitizer program absorbs on each carry-less kernel: by the
# word step alone (under one block), by the block step (two blocks and a tail) and
# on two threads, H2 and T ASAN_SPLIT_PART bytes each (two blocks), H1 the rest.
ASAN_LENGTHS = (1000, 3000, 5000)
ASAN_SPLIT_PART = 2048
# the entry sizes the AddressSanitizer program runs
ASAN_BITS = (64, 416, 512, 608, 1744, 2784, 4288)

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
    size_t table_words[2]; /* clmul's and vpclmul's, the start of table and all of it */
    uint64_t table[MAX_TABLE], k[MAX_W], k2[MAX_W], want[3][MAX_W];
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
    int (*splits[])(struct split *, uint64_t *, const uint64_t *, const uint16_t *,
                    const uint8_t *, size_t, size_t, const uint64_t *,
                    const uint64_t *) = {absorb_split_clmul, absorb_split_vpclmul};
    int mismatches = 0, runs = 0;
    for (int kernel = 0; kernel < carryless(); kernel++)
        for (size_t c = 0; c < sizeof cases / sizeof cases[0]; c++) {
            size_t w = cases[c].table[0];
            uint64_t *table = exactly(cases[c].table, cases[c].table_words[kernel] * 8);
            uint64_t *k = exactly(cases[c].k, w * 8), *k2 = exactly(cases[c].k2, w * 8);
            for (int run = 0; run < 3; run++) {
                uint8_t *data = exactly(message, lengths[run]);
                uint64_t *reg = calloc(w, 8);
                struct split sp;
                if (run < 2)
                    absorbs[kernel](reg, table, codewords, data, lengths[run]);
                else if (splits[kernel](&sp, reg, table, codewords, data, lengths[run], %(part)d, k,
                                        k2))
                    split_join(&sp);
                mismatches += memcmp(reg, cases[c].want[run], w * 8) != 0;
                runs++;
                free(reg);
                free(data);
            }
            free(k2);
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
        eng = fastcrc.engine_init(e)
        for chunk in split(m, cuts):
            eng.absorb(chunk)
        assert eng.finish().data == classifier.classify(m, e).data

    @PROPERTY_SETTINGS
    @given(e=entries, data=st.data(), cuts=st.lists(st.integers(0, 300), max_size=12))
    def test_chunking_invariance(self, path, e, data, cuts):
        m = data.draw(messages(path))
        eng = fastcrc.engine_init(e)
        for chunk in split(m, cuts):
            eng.absorb(chunk)
        assert eng.consumed == len(m)
        assert eng.finish().data == fastcrc.engine_init(e).absorb(m).finish().data

    @PROPERTY_SETTINGS
    @given(e=entries, data=st.data())
    def test_registers_combine(self, path, e, data):
        # reg(A || B) = reg(A) * x^(9|B|) + reg(B) mod g, each register taken before
        # finish; lengths 0-200 cross the 8-byte filler boundary and the word boundaries
        poly = gf2poly.BitPolynomial
        a, b = data.draw(messages(path, 200)), data.draw(messages(path, 200))

        def register(m):
            return fastcrc.engine_init(e).absorb(m).register

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
            return int.from_bytes(fastcrc.engine_init(e).absorb(m).finish().data, "big")

        both = sbox.expand_message(a) ^ sbox.expand_message(b)
        want = gf2poly.remainder(gf2poly.shift_left(both, e.degree), e.generator)
        assert digest(a) ^ digest(b) == want.value
