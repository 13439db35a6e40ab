import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from badderlocks import classifier, fastcrc, gf2poly, params
from badderlocks.fastcrc import build_tables, engine_init

FOX = b"The quick brown fox jumps over the lazy dog"


# the kernel's absorb loops, in the order build_tables prefers them
KERNEL_PATHS = ("vpclmul", "clmul", "native")


def use_path(monkeypatch, path):
    """Make engines built from here on run the given path.

    A kernel path is forced by clearing the loops build_tables would pick
    first, as on a CPU the CPU check finds without them: "clmul" clears
    vpclmul, "native" also clmul.  "python" unloads the kernel, as on a host
    without a compiler.
    """
    if path != "python" and fastcrc._kernel is None:
        pytest.skip("the C kernel is not loaded here (no working C compiler)")
    if path == "python":
        monkeypatch.setattr(fastcrc, "_kernel", None)
    else:
        if getattr(fastcrc._kernel, path) is None:
            pytest.skip(f"this CPU cannot run the {path} kernel")
        for faster in KERNEL_PATHS[:KERNEL_PATHS.index(path)]:
            monkeypatch.setattr(fastcrc._kernel, faster, None)
    monkeypatch.setattr(fastcrc, "_table_cache", {})


@pytest.fixture(params=["vpclmul", "clmul", "native", "python"])
def path(request, monkeypatch):
    """Run the test through both carry-less kernels, the table kernel and the Python loop."""
    use_path(monkeypatch, request.param)
    return request.param


def row_forms(e):
    """e's tables as the table kernel builds them, then as the Python loop builds them."""
    forms = []
    for path in ("python",) if fastcrc._kernel is None else ("native", "python"):
        with pytest.MonkeyPatch.context() as mp:
            use_path(mp, path)
            forms.append(build_tables(e))
    return forms


class TestTables:
    def test_row_zero_is_zero(self):
        for e in params.registry()[:5]:
            for t in row_forms(e):
                assert t.row(0) == 0

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
                    assert t.row(v) == expected.value, (bits, t.path, v)

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
        use_path(monkeypatch, "clmul")
        for e in params.registry():
            t = build_tables(e)
            mu, low = fastcrc._barrett_constants(e)
            assert t.path == "clmul" and t.main[0] == mu
            assert t._unpack(memoryview(t.main)[1:]) == low, e.index

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
        for e in params.registry():
            # 64 B is exactly nine 64-bit words of codewords, no tail bits
            for n in [*range(18), 63, 64, 65, 71, 72, 73, 100, 128, 1000]:
                m = rng.randbytes(n)
                want = classifier.classify(m, e).data
                eng = engine_init(e)
                assert eng.path == path
                pos = 0
                while pos < n:
                    step = rng.randrange(1, n - pos + 1)
                    eng.absorb(m[pos:pos + step])
                    pos += step
                if n >= 8:
                    assert eng.register == int.from_bytes(want, "big"), (e.index, n)
                assert eng.finish().data == want, (e.index, n)

    def test_accepts_any_bytes_like_chunk(self, path):
        e = params.entry_for_aligned_bits(416)
        want = classifier.classify(FOX, e).data
        for chunk in (bytearray(FOX), memoryview(FOX)):
            assert engine_init(e).absorb(chunk).finish().data == want

    def test_repr_names_entry_bytes_and_path(self, path):
        eng = engine_init(params.entry_for_aligned_bits(1744)).absorb(FOX)
        assert repr(eng) == f"<CrcEngine entry=17 bits=1744 consumed=43 path={path}>"


class TestKernelBuild:
    @pytest.mark.parametrize("case", ["missing compiler", "compile error", "unwritable cache"])
    def test_failed_build_gives_python_path(self, monkeypatch, tmp_path, case):
        cache, cc = tmp_path / "cache", "cc"
        if case == "missing compiler":
            cc = str(tmp_path / "no-such-cc")
        elif case == "compile error":
            cc = "false"  # runs, writes nothing and exits 1
        else:
            (tmp_path / "file").write_bytes(b"")
            cache = tmp_path / "file" / "cache"
        kernel = fastcrc._load_kernel(cache, cc)
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
        # dlopen fails, and the loader falls back instead of raising
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
            ["cc", "-O1", "-g", "-shared", "-fPIC", "-Wall", "-Wextra", "-Werror",
             "-fsanitize=undefined", "-fno-sanitize-recover=all",
             "-o", str(lib), str(fastcrc._SOURCE)], capture_output=True, text=True)
        assert build.returncode == 0, build.stderr
        run = subprocess.run([sys.executable, "-c", SANITIZED_SWEEP, str(lib)],
                             capture_output=True, text=True, timeout=600,
                             env={**os.environ, "PYTHONPATH": str(Path(fastcrc.__file__).parents[1])})
        assert run.returncode == 0, run.stderr
        paths = [p for p in KERNEL_PATHS if getattr(fastcrc._kernel, p) is not None]
        per_path = 52 + 30 * 26 + 7 * 81  # the three c2 suites, the sweep, the block edges
        assert run.stdout.split() == [*paths, str(per_path * len(paths))]

    def test_avx512_stays_in_the_vpclmul_kernel(self, tmp_path):
        # a CPU with PCLMULQDQ but not AVX-512 runs every function but the vpclmul
        # ones, so no AVX-512 instruction may reach them, even through a helper the
        # compiler inlined or cloned; and the table loops run on any x86-64 CPU
        if os.uname().machine != "x86_64":
            pytest.skip("the carry-less kernels are compiled on x86-64 only")
        if shutil.which("cc") is None or shutil.which("objdump") is None:
            pytest.skip("needs cc and objdump on PATH")
        lib = tmp_path / "_absorb.so"
        assert fastcrc._compile(["cc", *fastcrc._COMPILE], lib)
        listing = subprocess.run(["objdump", "-d", str(lib)], capture_output=True, text=True,
                                 check=True).stdout
        functions = disassembly(listing)
        assert any(avx512(i) for i in functions["absorb_vpclmul"])  # the check sees AVX-512
        for name, instructions in functions.items():
            if "vpclmul" not in name:
                assert not [i for i in instructions if avx512(i)], name
        for name in ("absorb", "fill"):
            assert not [i for i in functions[name] if "pclmul" in i[1]], name


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
import random, sys
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
print(" ".join(paths), checked)
"""


# Fixed examples, so the tier-1 run is repeatable; the path fixture only
# patches module state that holds for every example, so one setup serves all.
PROPERTY_SETTINGS = settings(derandomize=True, max_examples=150, deadline=None,
                             suppress_health_check=[HealthCheck.function_scoped_fixture])
entries = st.sampled_from(params.registry())
# lengths 0-300 cross the 8-byte filler boundary and span many cycles
messages = st.binary(max_size=300)


def split(message: bytes, cuts: list[int]) -> list[bytes]:
    bounds = sorted({0, len(message), *(c % (len(message) + 1) for c in cuts)})
    return [message[a:b] for a, b in zip(bounds, bounds[1:])]


class TestProperties:
    @PROPERTY_SETTINGS
    @given(e=entries, m=messages, cuts=st.lists(st.integers(0, 300), max_size=6))
    def test_engine_equals_reference(self, path, e, m, cuts):
        eng = engine_init(e)
        for chunk in split(m, cuts):
            eng.absorb(chunk)
        assert eng.finish().data == classifier.classify(m, e).data

    @PROPERTY_SETTINGS
    @given(e=entries, m=messages, cuts=st.lists(st.integers(0, 300), max_size=12))
    def test_chunking_invariance(self, path, e, m, cuts):
        eng = engine_init(e)
        for chunk in split(m, cuts):
            eng.absorb(chunk)
        assert eng.consumed == len(m)
        assert eng.finish().data == engine_init(e).absorb(m).finish().data

    @PROPERTY_SETTINGS
    @given(e=entries, a=st.binary(max_size=200), b=st.binary(max_size=200))
    def test_registers_combine(self, path, e, a, b):
        # reg(A || B) = reg(A) * x^(9|B|) + reg(B) mod g, each register taken before
        # finish; lengths 0-200 cross the 8-byte filler boundary and the word boundaries
        poly = gf2poly.BitPolynomial

        def register(m):
            return engine_init(e).absorb(m).register

        moved = gf2poly.remainder(gf2poly.multiply(poly(register(a)), poly(1 << 9 * len(b))),
                                  e.generator)
        assert register(a + b) == moved.value ^ register(b)
