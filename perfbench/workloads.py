"""Seeded workloads: the op list of one pass, the op each workload runs, and its oracle.

Every workload is a closed loop with one caller: a signer or a classifier
user waits for each result before sending the next message.  A seed fixes
one pass of ops; a run repeats that pass, so every pass does identical work
and per-pass figures can be compared directly.

Import this module only after repo.import_library() has put the checkout's
src/ on sys.path.
"""

from __future__ import annotations

import hashlib
import json
import random
from hashlib import sha256  # the traced run replaces this name with a span recorder

from badderlocks import classifier, fastcrc, params, reefshoal

import repo

# Ops per pass.  digest-short holds every registry entry 67 times and
# sign-short every modulus 200 times; bulk-stream holds 8 turns of its
# entry rotation, enough samples for a tail with 10 beyond it.
PASS_OPS = {"digest-short": 2010, "sign-short": 800, "bulk-stream": 24}

SHORT_SHARE = 0.3          # share of 0-16 B messages, crossing the 8-byte filler boundary
SHORT_BYTES = (0, 16)
LONG_BYTES = (17, 256)

SIGN_HASH_BITS = 256
SIGN_PADDING = b"\x00\x01"
# The entry plan_layout must pick for each modulus next to a 256-bit hash
# and the default 16-bit padding; the oracle uses this table, not plan_layout.
SIGN_ENTRY_BITS = {1024: 704, 2048: 1744, 3072: 2784, 4096: 3616}

BULK_BYTES = 1 << 20
BULK_CHUNK = 64 * 1024
BULK_BITS = (64, 1744, 4288)


def setup_entries(workload: str) -> list:
    """Registry entries whose tables the workload's set-up builds."""
    if workload == "digest-short":
        return list(params.registry())
    bits = SIGN_ENTRY_BITS.values() if workload == "sign-short" else BULK_BITS
    return [params.entry_for_aligned_bits(b) for b in bits]


def setup(workload: str) -> None:
    """Load the registry (with its quick verification) and build the workload's tables."""
    params.registry()
    for entry in setup_entries(workload):
        fastcrc.engine_init(entry)


def _stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """count integers, each uniform on lo..hi, one from each equal stratum.

    Stratifying keeps a pass's total bytes nearly the same for every seed,
    so seeds differ in content and order but not in the amount of work.
    """
    span = hi - lo + 1
    return [lo + int((k + rng.random()) * span / count) for k in range(count)]


def _message_lengths(rng: random.Random, count: int) -> list[int]:
    short = round(SHORT_SHARE * count)
    lengths = _stratified(rng, *SHORT_BYTES, short) + _stratified(rng, *LONG_BYTES, count - short)
    rng.shuffle(lengths)
    return lengths


def make_ops(workload: str, seed: int) -> list[tuple]:
    """The (key, message) ops of one pass; the same seed gives the same list.

    The key is a registry entry for digest-short and bulk-stream and a
    modulus size in bits for sign-short.
    """
    rng = random.Random(f"{workload}:{seed}")
    count = PASS_OPS[workload]
    if workload == "bulk-stream":
        message = rng.randbytes(BULK_BYTES)
        rotation = [params.entry_for_aligned_bits(b) for b in BULK_BITS]
        return [(entry, message) for _ in range(count // len(rotation)) for entry in rotation]
    keys = list(params.registry()) if workload == "digest-short" else list(SIGN_ENTRY_BITS)
    keys = keys * (count // len(keys))
    rng.shuffle(keys)
    return [(key, rng.randbytes(n)) for key, n in zip(keys, _message_lengths(rng, count))]


def digest_short(entry, message: bytes) -> bytes:
    return fastcrc.engine_init(entry).absorb(message).finish().data


def sign_short(modulus_bits: int, message: bytes) -> bytes:
    digest = sha256(message).digest()
    layout = reefshoal.plan_layout(modulus_bits, SIGN_HASH_BITS)
    return reefshoal.assemble(message, digest, layout)


def bulk_stream(entry, message: bytes) -> bytes:
    engine = fastcrc.engine_init(entry)
    h = sha256()
    for i in range(0, len(message), BULK_CHUNK):
        chunk = message[i:i + BULK_CHUNK]
        engine.absorb(chunk)
        h.update(chunk)
    return engine.finish().data + h.digest()


OPS = {"digest-short": digest_short, "sign-short": sign_short, "bulk-stream": bulk_stream}


def message_bytes(ops: list[tuple]) -> int:
    """Input bytes one pass digests; a message hashed and classified counts once."""
    return sum(len(m) for _, m in ops)


def oracle(workload: str, ops: list[tuple]) -> list[bytes]:
    """Expected output of each op from the reference classifier and hashlib."""
    memo: dict[tuple, bytes] = {}  # bulk-stream repeats one message per entry
    expected = []
    for key, message in ops:
        cache_key = (key if workload == "sign-short" else key.index, id(message))
        if cache_key not in memo:
            if workload == "digest-short":
                value = classifier.classify(message, key).data
            elif workload == "sign-short":
                entry = params.entry_for_aligned_bits(SIGN_ENTRY_BITS[key])
                value = (SIGN_PADDING + classifier.classify(message, entry).data
                         + hashlib.sha256(message).digest())
            else:
                value = classifier.classify(message, key).data + hashlib.sha256(message).digest()
            memo[cache_key] = value
        expected.append(memo[cache_key])
    return expected


def _fingerprint() -> str:
    """Hash of everything the expected outputs depend on: library sources and this file."""
    h = hashlib.sha256()
    files = sorted((repo.SRC / "badderlocks").rglob("*"))
    for path in [*files, repo.HERE / "workloads.py"]:
        if path.is_file() and path.suffix in (".py", ".txt"):
            h.update(path.relative_to(repo.ROOT).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def expected_path(workload: str, seed: int, ops: list[tuple]):
    """Path of the memoised oracle outputs for (workload, seed), computing them if absent.

    The bulk-stream oracle spends seconds per MiB in the bit-serial
    reference, so results are kept under the benchmark's own .cache/.
    """
    path = repo.HERE / ".cache" / f"expected-{workload}-{seed}-{_fingerprint()}.json"
    if not path.is_file():
        path.parent.mkdir(exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps([v.hex() for v in oracle(workload, ops)]))
        tmp.replace(path)
    return path


def load_expected(path) -> list[bytes]:
    with open(path) as f:
        return [bytes.fromhex(v) for v in json.load(f)]


def mismatches(outputs: list, expected: list[bytes]) -> int:
    """Ops whose output differs from the oracle; a failed op's output is None."""
    if len(outputs) != len(expected):
        raise ValueError(f"{len(outputs)} outputs for {len(expected)} expected values")
    return sum(out != want for out, want in zip(outputs, expected))
