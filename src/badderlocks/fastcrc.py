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

- "vpclmul": C with no table of rows, on AVX-512.  Codewords are packed
  into 64-bit words.  A call of one block, 1 KiB, or more is reduced a
  block at a time, by one Barrett step per block whose products, formed
  with VPCLMULQDQ, do not wait on each other.  Shorter calls, and what
  follows a call's last whole block, take the per-word Barrett step,
  ceil(degree / 64) + 1 carry-less multiplies per word, eight of them per
  pair of VPCLMULQDQ instructions.
- "clmul": the per-word step with PCLMULQDQ, one multiply per instruction.
- "native": the cycle loop above in C, one 512-row table lookup per byte.
- "python": the same loop in Python.

The four loops share one signature, (register, table, codeword map, data),
and one register layout, a bytearray of ceil(degree / 64) native 64-bit
words.  Each table states its size first, at most 72 words on the C paths,
so no call passes it, and carries its path's loop and digest (see
`CrcTables`), so the engine never asks which path it runs.  `_absorb.c`
holds the three C loops; both carry-less paths read one table, whose
block-step constant the module computes when the table is built, and the
block size is a constant of the C code.  `_absorbmodule.c` includes
`_absorb.c` and makes it a CPython extension module whose functions take
these as buffers, check their sizes before writing a word, and release the
GIL for chunks of 4 KiB or more.  The first import compiles the module with
`cc -pthread` and the interpreter's `Python.h` into this package's
`__pycache__`, named by a hash of both sources, the compile command, the
machine and the interpreter's extension suffix, and later imports load
that file.  The module asks the CPU which carry-less instructions it runs:
the vpclmul path is taken where it reports AVX-512F and VPCLMULQDQ, else
the clmul path where it reports PCLMULQDQ, else the native path; the Python
loop runs where the module cannot be built or imported.

On the two carry-less paths, a chunk of 16 KiB or more is absorbed on two
threads where this process may run on two CPUs or more: a persistent C
worker thread absorbs the first n - n2 bytes into the register while the
calling thread absorbs the last n2 into a zeroed one, n2 being the largest
power of two <= n / 2, and the C code joins the two by
reg(A || B) = reg(A) * x^(9|B|) + reg(B) mod g.  The constant that moves a
register past 2^j bytes is cached per generator on first use.  On vpclmul
both parts and the combine take the block step.  A second thread calling
absorb while the worker is busy, or a worker that has not started its part
by the time the caller's is done, leaves the work to the calling thread.
Smaller chunks, the other paths and a one-CPU affinity mask run one
thread, and every path gives the same digest.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import sys
import sysconfig
from array import array
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache, cached_property
from pathlib import Path

from .classifier import ClassifierDigest
from .gf2poly import BitPolynomial, reduction_basis, reduction_rows, remainder
from .params import GeneratorEntry
from .sbox import FILLER, codeword_table

__all__ = ["CrcTables", "CrcEngine", "build_tables", "engine_init"]

_PACKAGE = Path(__file__).parent
_SOURCES = (_PACKAGE / "_absorbmodule.c", _PACKAGE / "_absorb.c")  # the first includes the second
# no -march=native: the cached file must stay valid if the checkout moves to another host
_COMPILE = ("-O3", "-shared", "-fPIC", "-pthread")


class _Kernel:
    """The extension module, and the absorb loops build_tables picks a path from: each is the
    attribute named after its path, and `vpclmul` and `clmul` are None where the CPU cannot
    run them."""

    def __init__(self, path: Path):
        name = "badderlocks._absorb"
        loader = importlib.machinery.ExtensionFileLoader(name, str(path))
        self.module = importlib.util.module_from_spec(
            importlib.util.spec_from_file_location(name, path, loader=loader))
        loader.exec_module(self.module)
        self.native = self.module.absorb
        self.clmul = self.vpclmul = None
        for path in ("clmul", "vpclmul")[:self.module.carryless()]:  # each exists from its level
            setattr(self, path, getattr(self.module, f"absorb_{path}"))


def _compile(command: list[str], path: Path) -> bool:
    """Build the module at path; a temporary name keeps a half-written file from being loaded."""
    import subprocess  # only a cache miss pays for it

    path.parent.mkdir(exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        if subprocess.run([*command, "-o", str(tmp), str(_SOURCES[0])],
                          capture_output=True).returncode:
            return False
        os.replace(tmp, path)
        return True
    finally:
        tmp.unlink(missing_ok=True)


def _load_kernel(cache_dir: Path = _PACKAGE / "__pycache__", cc: str = "cc",
                 include: str = sysconfig.get_paths()["include"]) -> _Kernel | None:
    """The compiled module, built into cache_dir against include's Python.h unless already
    there; None if that fails."""
    try:
        command = [cc, *_COMPILE, "-I", include]
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]  # the interpreter's EXT_SUFFIX
        key = b"\0".join([*(source.read_bytes() for source in _SOURCES),
                          " ".join(command).encode(), os.uname().machine.encode(),
                          suffix.encode()])
        path = cache_dir / f"_absorb-{hashlib.sha256(key).hexdigest()[:16]}{suffix}"
        if not path.is_file() and not _compile(command, path):
            return None
        return _Kernel(path)
    # no compiler or Python.h, an unwritable directory, or a file that does not import
    except (OSError, ImportError):
        return None


_kernel = _load_kernel()


def _split_bytes() -> int:
    """The smallest chunk absorbed on two threads: 16 KiB where this process may run on two CPUs."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return 16 * 1024 if (cpus or 1) >= 2 else sys.maxsize


_SPLIT_BYTES = _split_bytes()  # the affinity mask is read once


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
    """The module's digest in Python: the register's value as ceil(degree / 8) bytes, big-endian."""
    value = int.from_bytes(b"".join(w.to_bytes(8, "big") for w in memoryview(reg).cast("Q")), "big")
    return (value >> 8 * len(reg) - degree).to_bytes((degree + 7) // 8, "big")


@dataclass(frozen=True)
class CrcTables:
    """Precomputed reduction data for one generator g, and its path's callables.

    The packed forms hold each value in `words` 64-bit words, most
    significant word first and shifted up by 64 * words - degree bits, and
    every path's register is one, in a bytearray.  `main` states its own
    size first, which the loop reads in place of an argument.  `loop(reg,
    main, codewords, data)` appends the codeword each byte of data maps to,
    and `digest(reg, degree)` returns the byte-aligned digest.  On the
    carry-less paths `split(reg, main, codewords, data, n2, k)`, the
    two-thread entry, returns whether the worker took its part, and
    `combine(reg, main, k, zero)` moves a register past 2^j bytes (see
    `_shift`); elsewhere both are None.

    - "python": `main` is (degree, rows), rows a tuple of 512 ints,
      row v = (v << degree) mod g.
    - "native": `main` is an array("Q"): `words`, then those 512 rows, packed.
    - "vpclmul" and "clmul": both read one array("Q").  `main` is `words`, mu
      (one word), seven zero words, then G = (g - x^degree) * x^pad least
      significant word first, zero-padded to whole blocks of eight words
      (see `_barrett_constants`), then the module's `TAIL_WORDS`, into which
      its `fill_carryless` writes the block step's constant.  `shifts`
      caches the packed combine constants by j; see `_shift`.
    """

    degree: int
    main: tuple[int, tuple[int, ...]] | array
    path: str
    loop: Callable
    digest: Callable[[bytearray, int], bytes]
    split: Callable | None = None
    combine: Callable | None = None
    shifts: dict[int, array] = field(default_factory=dict, compare=False, repr=False)

    @cached_property  # each engine's register is sized by it
    def words(self) -> int:
        """64-bit words per packed row, and per register: ceil(degree / 64)."""
        return (self.degree + 63) // 64


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
    """Build the reduction data for one generator entry, in the form the selected path reads."""
    if _kernel is None:
        return CrcTables(e.degree, (e.degree, reduction_rows(e.generator, 9)), "python",
                         _python_loop, _python_digest)
    module, w = _kernel.module, (e.degree + 63) // 64
    pad = 64 * w - e.degree
    for path in ("vpclmul", "clmul"):
        if getattr(_kernel, path) is not None:
            mu, low = _barrett_constants(e)
            # G, then the tail, least significant word first, as the carry-less kernels read
            # them (they run only on x86-64, which is little-endian)
            n = 8 * (7 + 8 * ((w + 7) // 8) + module.TAIL_WORDS)
            consts = array("Q", [w, mu]) + array("Q", (low << pad + 64 * 7).to_bytes(n, "little"))
            module.fill_carryless(consts)
            return CrcTables(e.degree, consts, path, getattr(_kernel, path), module.digest,
                             getattr(module, f"absorb_split_{path}"),
                             getattr(module, f"combine_{path}"))
    rows = array("Q", bytes(8 * (1 + 512 * w)))
    rows[0] = w
    for j, basis in enumerate(reduction_basis(e.generator, 9)):
        rows[1 + (w << j):1 + (w << j) + w] = _to_words(basis << pad, w)
    module.fill(rows)  # the other 503 rows, from these 9 and the zero row
    return CrcTables(e.degree, rows, "native", _kernel.native, module.digest)


def _shift(e: GeneratorEntry, tables: CrcTables, j: int) -> array:
    """K_j = x^(9 * 2^j - 2 * pad - d) mod g, packed, on a carry-less path.

    The combine step turns a register r and K_j into r * x^(9 * 2^j) mod g,
    r moved past 2^j bytes.  The exponent is nonnegative for every split of
    a chunk of 1 KiB or more: its second part is 2^j >= 512 bytes, and
    9 * 512 > 2 * pad + d for every registry entry.  The smallest j with a
    nonnegative exponent is reduced once here; each later K_j is the
    combine step squaring K_(j-1).
    """
    k = tables.shifts.get(j)
    if k is None:
        w = tables.words
        pad = 64 * w - e.degree
        exponent = (9 << j) - 2 * pad - e.degree
        if 2 * exponent < 9 << j:  # K_(j-1) would have a negative exponent
            power = remainder(BitPolynomial(1 << exponent), e.generator).value
            k = _to_words(power << pad, w)
        else:
            half = _shift(e, tables, j - 1)
            k = array("Q", half)
            tables.combine(k, tables.main, half, array("Q", bytes(8 * w)))
        tables.shifts[j] = k
    return k


_table_cache: dict[int, CrcTables] = {}


def _tables_for(e: GeneratorEntry) -> CrcTables:
    tables = _table_cache.get(e.index)
    if tables is None:
        tables = _table_cache[e.index] = build_tables(e)
    return tables


@cache
def _codewords() -> array:
    """Each byte value's S-box codeword, built on first absorb so that set-up does not pay."""
    return array("H", codeword_table().entries)


_FILLER = array("H", [FILLER]) * 256  # every byte maps to FILLER


class CrcEngine:
    """Single-use streaming state: init, absorb chunks, finish once.

    After absorbing a message of 8 or more bytes, `register` equals the
    classifier digest of that message as an integer.
    """

    __slots__ = ("entry", "tables", "consumed", "_finished", "_reg")

    def __init__(self, entry: GeneratorEntry, tables: CrcTables):
        self.entry = entry
        self.tables = tables
        self.consumed = 0
        self._finished = False
        self._reg = bytearray(8 * tables.words)  # laid out like a packed row

    @property
    def register(self) -> int:
        return int.from_bytes(self.tables.digest(self._reg, self.entry.degree), "big")

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
        if type(chunk) is bytes:
            n = len(chunk)
        else:
            # its raw bytes, whatever the item size, read in place where they are contiguous;
            # a non-buffer raises TypeError here, before any state changes
            view = memoryview(chunk)
            n = view.nbytes
            if not view.c_contiguous:
                chunk = view.tobytes()
        tables = self.tables
        if n >= _SPLIT_BYTES and tables.split is not None:
            n2 = 1 << (n // 2).bit_length() - 1  # n - n2 < 3 * n2
            tables.split(self._reg, tables.main, _codewords(), chunk, n2,
                         _shift(self.entry, tables, n2.bit_length() - 1))
        else:
            tables.loop(self._reg, tables.main, _codewords(), chunk)
        self.consumed += n
        return self

    def finish(self) -> ClassifierDigest:
        """Apply the filler rule and emit the byte-aligned digest."""
        if self._finished:
            raise RuntimeError("engine already finished")
        self._finished = True
        tables = self.tables
        if self.consumed < 8:  # one FILLER cycle for each byte short of 8
            tables.loop(self._reg, tables.main, _FILLER, bytes(8 - self.consumed))
        return ClassifierDigest(tables.digest(self._reg, self.entry.degree), self.entry)


def engine_init(e: GeneratorEntry) -> CrcEngine:
    """Fresh zeroed engine for entry e; tables are built lazily and shared."""
    return CrcEngine(e, _tables_for(e))
