"""Streaming classifier engine in direct form.

The register always holds `prefix * x^degree mod generator`, where prefix
is the S-box expansion of the codewords absorbed so far.  One cycle appends
a 9-bit codeword c: the register's top 9 bits are XORed with c, the rest
shift up 9 places, and the precomputed reduction row for the XORed value is
added in (Sarwate 1988; Williams's "direct" table algorithm).  Finishing
appends the filler codewords of a message shorter than 8 bytes, in at most
one loop call, and emits the register byte-aligned, so no zero bits need to
be flushed through.  Output is bit-identical to classifier.classify.

Absorb runs on one of four paths, which `CrcEngine.path` names:

- "vpclmul": C with no table of rows, on AVX-512 with VBMI.  Codewords are
  packed into 64-bit words, 64 bytes at a time by byte permutations.  A
  call of one block, 1 KiB, or more is reduced a block at a time, by one
  Barrett step per block whose products, formed with VPCLMULQDQ, do not
  wait on each other; square tiles of those products take Karatsuba, which
  reads sums of the step's constants kept in the table, so a block step
  issues a third fewer VPCLMULQDQ at 1744-4288 bits.  Shorter calls, and
  what follows a call's last whole block, take the per-word Barrett step,
  ceil(degree / 64) + 1 carry-less multiplies per word, eight of them per
  pair of VPCLMULQDQ instructions.
- "clmul": the per-word step with PCLMULQDQ, one multiply per instruction.
- "native": the cycle loop above in C, one 512-row table lookup per byte.
- "python": the same loop in Python.

The four loops share one signature, (register, table, codeword map, data),
and one register layout, a bytearray of ceil(degree / 64) native 64-bit
words.  `build_tables` admits the same entries on every path and host:
those whose generator has their degree, from 9 to 4544, so at most 71
words.  Each table states its size first, which the C paths check is at
most 72 words, so no call passes it, and carries its path's loop (see
`CrcTables`), so the engine never asks which path it runs.  Each engine
reads its register with its own routine, for every path lays it out alike.
`_absorb.c` holds the three C loops; a vpclmul table is the clmul one plus
the block step's constants, which the module computes at its build, and
the block size is a constant of the C code.  `_absorbmodule.c` includes
`_absorb.c` and makes it a CPython extension module whose functions take
these as buffers, check their sizes before writing a word, and release the
GIL for chunks of 4 KiB or more.  The first import compiles the module as a
release build, `cc -DNDEBUG -pthread`, against the interpreter's
`Python.h` into this package's `__pycache__`, named by two 32-bit
checksums, CRC-32 and Adler-32, of both sources, the compile command, the
machine and the interpreter's extension suffix, and later imports load
that file; a build deletes this interpreter's builds of earlier sources
there.  The key names the interpreter by its installation prefix, not its
include directory, so only a build imports sysconfig; `os.path` finds both
sources and the cache next to this file, so finding them imports nothing.
fastcrc calls the module's functions directly.  Its `carryless()` asks the
CPU which carry-less instructions it runs, and `build_tables` reads that
answer each time it builds a table: the vpclmul path is taken where the CPU
reports AVX-512F and VPCLMULQDQ, else the clmul path where it reports
PCLMULQDQ, else the native path; the Python loop runs where the module
cannot be built or imported.

Where the module loads, `CrcEngine` is the module's engine type, which
follows the Python class below, as hashlib's objects wrap update and
digest, and adds the two-thread split.  The type fixes an engine's entry,
tables and register at its one constructor, `CrcEngine(entry, tables)` by
position or keyword: its `entry`, `tables`, `_reg`, `consumed`, `splits`
and `splits_taken` are read-only, where the Python class's are plain
slots, and `CrcEngine.__new__` raises TypeError.  `engine_init` and
`_tables_for` are the module's functions, so a short digest runs no Python
frame of this library.  The engine calls its tables' loop and split by
vectorcall, so each call passes the module's buffer checks, reads its
register in C with the same checks, and its `finish` builds the
`ClassifierDigest` with that class's length check but without the frame
of its `__init__`.  All three read `_SPLIT_BYTES`, `_shift`, `_CODEWORDS`,
`_FILLER`, `ClassifierDigest`, `CrcEngine`, `_tables_for`, `_table_cache`
and `build_tables` from this module at each call, through `bind`, as the
Python class and functions read them, so a patch or a tracer's wrapper
there reaches both.  The Python class and
functions stay as their pure-Python twins, `_PyCrcEngine`,
`_py_engine_init` and `_py_tables_for`, which run where the module does
not; each pair is held to one set of tests, but for the split, which only
the module's type makes: the Python class calls its tables' loop alone,
whatever tables it is given.

On the two carry-less paths, the module's engine type absorbs a chunk of
16 KiB or more on two threads where the calling thread may run on two CPUs
or more: it reads the thread's affinity mask (elsewhere the CPUs online)
for each such chunk, so a process pinned to one CPU after import takes no
split from then on.  The chunk is cut into [H1 | H2 | T], H2 and T q bytes
each.  A persistent C worker thread continues the register through H1,
then H2, while the calling thread absorbs T into a zeroed one and returns,
so the caller's next work, such as hashing the same chunk, overlaps the
worker's.  The engine keeps the split pending and joins it at its next
entry point: absorb, finish, `register`, `_reg`, or when the engine is
dropped.  A join takes H2 itself if the worker is not yet at it, then H1
too if the worker has not started, and otherwise waits for the worker; the
C code joins the registers by reg(A || B) = reg(A) * x^(9|B|) + reg(B) mod
g, one combine on each side, so a join that finds the worker done only
adds two registers.  The caller's share q follows the joins: it is a power
of two from 512 up to the largest <= n / 4, where it starts; a join that
found the worker done halves the engine's next q, and any other join
doubles it.  So a caller that hashes between absorbs, and finds the worker
done, leaves the worker nearly all of each chunk, while an absorb-only
stream keeps q at n / 4.  A join that takes the job back from a worker
that last ran on the caller's CPU moves the worker off it, for a scheduler
that does not balance the two CPUs may keep both there.  A chunk that is
not an exact `bytes` object may change once absorb returns, so it is
joined before absorb returns.  The constants that move a register past 2^j
bytes are cached per generator on first use.  On vpclmul every part and
the combine take the block step.  A split asked while another engine owns
the worker runs on the calling thread.  `splits` and `splits_taken` count,
at each join, the splits an engine asked for and those of which the worker
ran a part; the Python class keeps both at 0.  Smaller chunks, the other
paths, the Python class and a one-CPU affinity mask run one thread, and
every path gives the same digest.  No chunk under 1 KiB splits, whatever
`_SPLIT_BYTES` holds, for a split's last two parts are 512 bytes or more.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from array import array
from collections.abc import Callable
from contextlib import suppress
from types import ModuleType
from typing import NamedTuple

from .classifier import ClassifierDigest
from .gf2poly import reduction_basis, reduction_rows
from .params import GeneratorEntry
from .sbox import FILLER, codeword_table

__all__ = ["CrcTables", "CrcEngine", "build_tables", "engine_init"]

_PACKAGE = os.path.dirname(__file__)
# the first includes the second
_SOURCES = (os.path.join(_PACKAGE, "_absorbmodule.c"), os.path.join(_PACKAGE, "_absorb.c"))
# no -march=native: the cached file must stay valid if the checkout moves to another host
# -DNDEBUG: a release build, without the asserts of CPython's header macros
# -falign-functions=64: each function starts a cache line; an edit may still move a kernel
_COMPILE = ("-O3", "-DNDEBUG", "-falign-functions=64", "-shared", "-fPIC", "-pthread")


def _read(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _compile(command: list[str], path: str) -> bool:
    """Build the module at path; a temporary name keeps a half-written file from being loaded."""
    import subprocess  # only a cache miss pays for it

    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        if subprocess.run([*command, "-o", tmp, _SOURCES[0]], capture_output=True).returncode:
            return False
        os.replace(tmp, path)
        return True
    finally:
        with suppress(FileNotFoundError):
            os.unlink(tmp)


def _import(path: str | os.PathLike) -> ModuleType:
    """The extension module in the shared object at path."""
    name = "badderlocks._absorb"
    loader = importlib.machinery.ExtensionFileLoader(name, str(path))
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(name, path, loader=loader))
    loader.exec_module(module)
    return module


def _prune(built: str, suffix: str) -> None:
    """Delete the other builds with this interpreter's suffix, or an older bare .so, in built's
    directory: each edit of the sources leaves one.  Another interpreter's builds stay, so
    that two sharing a checkout do not rebuild in turn."""
    import re  # only a build pays for it

    directory, name = os.path.split(built)
    for other in os.listdir(directory):
        if other != name and re.fullmatch(rf"_absorb-[0-9a-f]{{16}}({re.escape(suffix)}|\.so)",
                                          other):
            with suppress(FileNotFoundError):  # another process may have pruned it first
                os.unlink(os.path.join(directory, other))


def _load_kernel(cache_dir: str | os.PathLike = os.path.join(_PACKAGE, "__pycache__"),
                 cc: str = "cc", include: str | None = None) -> ModuleType | None:
    """The extension module, built into cache_dir against include's Python.h (by default the
    interpreter's) unless already there; None if that fails.  Which of its loops a table
    uses is read from its CPU probe, `carryless()`, when the table is built."""
    try:
        from zlib import adler32, crc32  # name the build, far cheaper to import than hashlib

        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]  # the interpreter's EXT_SUFFIX
        # the interpreter's prefix stands for its default include directory, so that a load
        # from the cache need not import sysconfig; the suffix pins the ABI
        key = b"\0".join([*map(_read, _SOURCES),
                          " ".join([cc, *_COMPILE, "-I", include or sys.base_prefix]).encode(),
                          os.uname().machine.encode(), suffix.encode()])
        path = os.path.join(cache_dir, f"_absorb-{crc32(key):08x}{adler32(key):08x}{suffix}")
        if not os.path.isfile(path):
            if include is None:
                import sysconfig  # only a cache miss pays for it

                include = sysconfig.get_paths()["include"]
            if not _compile([cc, *_COMPILE, "-I", include], path):
                return None
            _prune(path, suffix)
        return _import(path)
    # no zlib, compiler or Python.h, an unwritable directory, or a file that does not import
    except (OSError, ImportError):
        return None


_kernel = _load_kernel()


# the smallest chunk the module's engine type absorbs on two threads, where the calling
# thread may run on two CPUs, which it asks at each such chunk
_SPLIT_BYTES = 16 * 1024


def _to_words(value: int, w: int) -> array:
    """value as w native 64-bit words, most significant word first: the register's layout."""
    return array("Q", [value >> shift & (1 << 64) - 1 for shift in range(64 * (w - 1), -1, -64)])


def _python_loop(reg: bytearray, table: tuple[int, tuple[int, ...]], codewords, data) -> None:
    """The cycle loop in Python, with the module's absorb signature; table is (degree, rows).
    It reads and writes the register once, and data, any contiguous buffer, in place."""
    degree, rows = table
    shift = degree - 9
    low_mask = (1 << shift) - 1
    r = int.from_bytes(_python_digest(reg, degree), "big")
    for byte in memoryview(data).cast("B"):
        r = ((r & low_mask) << 9) ^ rows[(r >> shift) ^ codewords[byte]]
    reg[:] = _to_words(r << 8 * len(reg) - degree, len(reg) // 8)


def _python_digest(reg: bytearray, degree: int) -> bytes:
    """The register's value as ceil(degree / 8) bytes, big-endian: how the Python engine and loop
    read a register of any path, as the module's engine type reads it in C."""
    value = int.from_bytes(b"".join(w.to_bytes(8, "big") for w in memoryview(reg).cast("Q")), "big")
    return (value >> 8 * len(reg) - degree).to_bytes((degree + 7) // 8, "big")


class CrcTables(NamedTuple):
    """Precomputed reduction data for one generator g, and its path's callables.

    The engine calls `loop`, the module's engine type also `split`; `_shift`
    calls `combine`.  The packed forms hold each value in `words` 64-bit
    words, most significant word first and shifted up by 64 * words - degree
    bits, for g's degree, which the engine reads from its entry, and every
    path's register is one, in a bytearray, which each engine reads itself.
    `main` states its own size first, which the loop reads in place of an
    argument.  `loop(reg, main, codewords, data)` appends the codeword each
    byte of data maps to.  On the carry-less paths
    `split(reg, main, codewords, data, q, k, k2)`, the two-thread entry,
    returns a pending split whose `join()` writes reg and returns how the
    join went: 0 the caller absorbed the whole chunk, 1 it took H2, 2 it
    waited for the worker, 3 the worker was done; and
    `combine(reg, main, k, zero)` moves a register past 2^j bytes (see
    `_shift`); elsewhere both are None.

    - "python": `main` is (degree, rows), rows a tuple of 512 ints,
      row v = (v << degree) mod g.
    - "native": `main` is an array("Q"): `words`, then those 512 rows, packed.
    - "clmul": `main` is an array("Q"): `words`, mu (one word), seven zero
      words, then G = (g - x^degree) * x^pad least significant word first,
      zero-padded to whole blocks of eight words (see `_barrett_constants`).
    - "vpclmul": the same, then the module's `TAIL_WORDS`, into which its
      `fill_carryless` writes the block step's constants: mu' and the sums of
      mu' and G that its Karatsuba tiles read.
    On both, `shifts` caches the packed combine constants by j; see `_shift`.
    """

    words: int  # 64-bit words per packed row, and per register: ceil(degree / 64)
    main: tuple[int, tuple[int, ...]] | array
    path: str
    loop: Callable
    shifts: dict[int, array]  # each build passes its own; a default would be shared
    split: Callable | None = None
    combine: Callable | None = None


def _barrett_constants(e: GeneratorEntry) -> tuple[int, int]:
    """mu = floor(x^(d+64) / g) - x^64, by long division, and g - x^d, for d = deg g.

    For t of degree below 64, the quotient floor(t * x^d / g) is
    t ^ (t * mu >> 64), and t * x^d mod g is the low d bits of that quotient
    times g - x^d.
    """
    g, d = e.generator.value, e.degree
    mu, rest = 0, 1 << (d + 64)
    for k in range(64, -1, -1):
        if rest >> (d + k) & 1:
            mu |= 1 << k
            rest ^= g << k
    return mu ^ 1 << 64, g ^ 1 << d


def build_tables(e: GeneratorEntry) -> CrcTables:
    """Build the reduction data for one generator entry, in the form its path reads: the
    fastest loop the module's CPU probe allows, or the Python loop without the module.

    This is where every path decides which entries an engine takes: one whose generator
    has degree `e.degree`, from the codeword width, 9, to 4544, the largest degree that
    keeps every `_shift` exponent nonnegative, and whose `aligned_bits` is that degree
    rounded up to whole bytes, the digest's size.  Any other entry raises ValueError here,
    before a table or a cache entry is made.
    """
    if (e.generator.degree != e.degree or not 9 <= e.degree <= 4544
            or e.aligned_bits != 8 * ((e.degree + 7) // 8)):
        raise ValueError(f"an engine takes an entry of degree 9..4544 whose generator has "
                         f"that degree and whose aligned_bits is 8 * ceil(degree / 8); got "
                         f"degree {e.degree}, a generator of degree {e.generator.degree} and "
                         f"aligned_bits {e.aligned_bits}")
    w = (e.degree + 63) // 64
    if _kernel is None:
        return CrcTables(w, (e.degree, reduction_rows(e.generator, 9)), "python", _python_loop, {})
    path, pad = ("native", "clmul", "vpclmul")[_kernel.carryless()], 64 * w - e.degree
    if path == "native":
        rows = array("Q", bytes(8 * (1 + 512 * w)))
        rows[0] = w
        for j, basis in enumerate(reduction_basis(e.generator, 9)):
            rows[1 + (w << j):1 + (w << j) + w] = _to_words(basis << pad, w)
        _kernel.fill(rows)  # the other 503 rows, from these 9 and the zero row
        return CrcTables(w, rows, path, _kernel.absorb, {})
    mu, low = _barrett_constants(e)
    # G, then on vpclmul the tail, least significant word first, as the carry-less kernels
    # read them (they run only on x86-64, which is little-endian)
    n = 8 * (7 + 8 * ((w + 7) // 8) + (_kernel.TAIL_WORDS if path == "vpclmul" else 0))
    consts = array("Q", [w, mu]) + array("Q", (low << pad + 64 * 7).to_bytes(n, "little"))
    if path == "vpclmul":
        _kernel.fill_carryless(consts)
    return CrcTables(w, consts, path, getattr(_kernel, f"absorb_{path}"), {},
                     getattr(_kernel, f"absorb_split_{path}"), getattr(_kernel, f"combine_{path}"))


def _shift(e: GeneratorEntry, tables: CrcTables, j: int) -> array:
    """K_j = x^(9 * 2^j - 2 * pad - d) mod g, packed, on a carry-less path.

    The combine step turns a register r and K_j into r * x^(9 * 2^j) mod g,
    r moved past 2^j bytes.  A register holding x^r that absorbs z zero
    codewords holds x^(r + 9z) mod g, so the loop builds K_9 from x^r, r =
    9s - 2 * pad - d below 9, over 512 - s zero bytes, s = ceil((2 * pad +
    d) / 9) <= 512, for 2 * pad + d = 128 * w - d is at most 4607 for every
    entry `build_tables` admits (degree 4481, 71 words; degree 4545, 72
    words, would give 4671).  No split asks for j < 9: its parts H2 and T are
    q = 2^j >= 512 bytes.  Each later K_j is the combine step squaring
    K_(j-1), where the loop would absorb 2^j - s zero bytes for each new j.
    """
    k = tables.shifts.get(j)
    if k is None:
        w = tables.words
        if j > 9:
            half = _shift(e, tables, j - 1)
            k = array("Q", half)
            tables.combine(k, tables.main, half, array("Q", bytes(8 * w)))
        else:
            pad = 64 * w - e.degree
            s = -(-(2 * pad + e.degree) // 9)
            r = 9 * s - 2 * pad - e.degree
            k = _to_words(1 << r + pad, w)
            tables.loop(k, tables.main, array("H", bytes(512)), bytes((1 << j) - s))
        tables.shifts[j] = k
    return k


_table_cache: dict[int, tuple[GeneratorEntry, CrcTables]] = {}


def _tables_for(e: GeneratorEntry, /) -> CrcTables:
    """e's tables, built on first use and kept under e's index with the entry they were built
    for, so that another entry under the same index gets tables of its own."""
    entry, tables = _table_cache.get(e.index, (None, None))
    if entry is not e and entry != e:
        tables = build_tables(e)
        _table_cache[e.index] = e, tables
    return tables


_CODEWORDS = array("H", codeword_table().entries)  # each byte value's S-box codeword
_FILLER = array("H", [FILLER]) * 256  # every byte maps to FILLER


class CrcEngine:
    """Single-use streaming state: init, absorb chunks, finish once.

    After absorbing a message of 8 or more bytes, `register` equals the
    classifier digest of that message as an integer.  This class is the
    pure-Python twin of the extension module's `CrcEngine` type, which
    takes its name where the module loads and adds the two-thread split.
    This class calls its tables' loop alone, whatever tables it is given,
    so it runs one thread, and its `splits` and `splits_taken` stay 0.
    """

    __slots__ = ("entry", "tables", "consumed", "splits", "splits_taken", "_finished", "_reg")

    def __init__(self, entry: GeneratorEntry, tables: CrcTables):
        self.entry = entry
        self.tables = tables
        self.consumed = 0
        self.splits = self.splits_taken = 0  # as `classify --stats` reads them: no split
        self._finished = False
        self._reg = bytearray(8 * tables.words)  # the register, laid out like a packed row

    @property
    def register(self) -> int:
        return int.from_bytes(_python_digest(self._reg, self.entry.degree), "big")

    @property
    def path(self) -> str:
        """Which absorb loop this engine runs: "vpclmul", "clmul", "native" or "python"."""
        return self.tables.path

    def __repr__(self) -> str:
        return (f"<CrcEngine entry={self.entry.index} bits={self.entry.aligned_bits} "
                f"consumed={self.consumed} path={self.path}>")

    def absorb(self, chunk: bytes) -> "CrcEngine":
        """Run one table cycle per byte of a bytes-like chunk; returns self for chaining."""
        if self._finished:
            raise RuntimeError("engine already finished")
        # its raw bytes, whatever the item size, read in place where they are contiguous;
        # a non-buffer raises TypeError here, before any state changes
        view = memoryview(chunk)
        if not view.c_contiguous:
            chunk = view.tobytes()
        tables = self.tables
        tables.loop(self._reg, tables.main, _CODEWORDS, chunk)
        self.consumed += view.nbytes
        return self

    def finish(self) -> ClassifierDigest:
        """Apply the filler rule and emit the byte-aligned digest."""
        if self._finished:
            raise RuntimeError("engine already finished")
        self._finished = True
        tables = self.tables
        if self.consumed < 8:  # one FILLER cycle for each byte short of 8
            tables.loop(self._reg, tables.main, _FILLER, bytes(8 - self.consumed))
        return ClassifierDigest(_python_digest(self._reg, self.entry.degree), self.entry)


def engine_init(e: GeneratorEntry, /) -> CrcEngine:
    """Fresh zeroed engine for entry e; tables are built lazily and shared."""
    return CrcEngine(e, _tables_for(e))


_PyCrcEngine, _py_engine_init, _py_tables_for = CrcEngine, engine_init, _tables_for
if _kernel is not None:  # the module's type and functions, reading this module's names
    CrcEngine, engine_init, _tables_for = _kernel.bind(globals())
