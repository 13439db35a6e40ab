"""Command-line front end.

Subcommands: classify, expand, vectors, verify-params, assemble.
Message input is always raw bytes from stdin or a file, never an argument,
so shell escaping cannot corrupt it.  Exit status 0 means success, 1 means
a verification or vector mismatch, 2 a usage error, unreadable input or a
closed stdout; error lines go to stderr alone.  If the reader of stdout
closes it early (`| head -1`), the command stops with status 141 (128 +
SIGPIPE, as `yes | head -1` reports) and prints no error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import nullcontext, suppress
from typing import Iterator, NoReturn

from . import classifier, fastcrc, gf2poly, params, reefshoal, sbox

__all__ = ["main", "dispatch"]

_SUITES = {
    "c1": "vectors_c1.txt",
    "c2-fox": "vectors_c2_fox.txt",
    "c2-small": "vectors_c2_small.txt",
    "c2-mixed": "vectors_c2_mixed.txt",
}


_CHUNK = 64 * 1024


def _read_chunks(args) -> Iterator[bytes]:
    """The input (--in FILE, else stdin) in pieces of at most _CHUNK bytes."""
    if not args.infile and sys.stdin is None:  # the process started with fd 0 closed
        _fail("standard input is closed")
    try:
        with open(args.infile, "rb") if args.infile else nullcontext(sys.stdin.buffer) as f:
            while chunk := f.read(_CHUNK):
                yield chunk
    except OSError as exc:
        _fail(str(exc))


def _read_message(args) -> bytes:
    return b"".join(_read_chunks(args))


def _to_stderr(line: str) -> None:  # to stderr only, and nowhere if it is closed or refuses it
    if sys.stderr is not None:  # print(file=None) would write to stdout
        with suppress(OSError):
            print(line, file=sys.stderr)


def _fail(message: str, status: int = 2) -> NoReturn:
    _to_stderr(f"error: {message}")
    raise SystemExit(status)  # bad input exits 2, as bad flags do


def _entry_for_bits(bits: int) -> params.GeneratorEntry:
    try:
        return params.entry_for_aligned_bits(bits)
    except KeyError as exc:
        _fail(exc.args[0])


def _positive_byte_multiple(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    if value % 8:
        raise argparse.ArgumentTypeError(f"must be a multiple of 8, got {value}")
    return value


def _expansion_hex(message: bytes, grouped: bool = False) -> str:
    """S-box expansion of message as hex, zero-padded to 9 bits per codeword."""
    width = (9 * max(8, len(message)) + 3) // 4
    return gf2poly.render_hex(sbox.expand_message(message), group=grouped, width=width)


def _cmd_classify(args) -> int:
    entry = _entry_for_bits(args.bits)
    engine = fastcrc.engine_init(entry)
    start = time.perf_counter()
    for chunk in _read_chunks(args):
        engine.absorb(chunk)
    digest = engine.finish()
    elapsed = time.perf_counter() - start
    value = gf2poly.BitPolynomial(int.from_bytes(digest.data, "big"))
    print(gf2poly.render_hex(value, group=args.grouped, width=2 * len(digest.data)))
    if args.stats:
        _to_stderr(f"entry={entry.index} bits={entry.aligned_bits} degree={entry.degree} "
                   f"path={engine.path} bytes={engine.consumed} elapsed_s={elapsed:.6f} "
                   f"mib_per_s={engine.consumed / elapsed / 2**20:.3f} "
                   f"splits={engine.splits_taken}/{engine.splits}")
    return 0


def _cmd_expand(args) -> int:
    print(_expansion_hex(_read_message(args), grouped=args.grouped))
    return 0


def _suite_text(name: str) -> str:
    with open(os.path.join(os.path.dirname(__file__), "data", _SUITES[name])) as f:
        return f.read()


def _load_suite(name: str) -> list[tuple[int, bytes, str]]:
    rows = []
    for line in _suite_text(name).splitlines():
        bits_s, input_spec, expected = line.split("\t")
        if input_spec.startswith("hex:"):
            message = bytes.fromhex(input_spec[4:])
        elif input_spec.startswith("text:"):
            message = input_spec[5:].encode("ascii")
        else:
            raise ValueError(f"bad input specifier {input_spec!r}")
        rows.append((int(bits_s), message, expected))
    return rows


def _vector_results(suite: str, bits: int, message: bytes) -> dict[str, str]:
    """What each implementation computes for one vector row, keyed by its name."""
    if suite == "c1":
        return {"expand": _expansion_hex(message)}
    entry = _entry_for_bits(bits)
    return {"engine": fastcrc.engine_init(entry).absorb(message).finish().hex(),
            "reference": classifier.classify(message, entry).hex()}


def _cmd_vectors(args) -> int:
    if not args.check:
        sys.stdout.write(_suite_text(args.suite))
        return 0
    rows = _load_suite(args.suite)
    failures = 0
    for bits, message, expected in rows:
        wrong = {name: got for name, got in _vector_results(args.suite, bits, message).items()
                 if got != expected}
        for name, got in wrong.items():
            print(f"MISMATCH {name} bits={bits} message={message.hex()} "
                  f"expected={expected} got={got}")
        failures += bool(wrong)
    print(f"{len(rows) - failures}/{len(rows)} vectors match")
    return 1 if failures else 0


def _cmd_verify_params(args) -> int:
    import json  # only this command pays for it

    level = "full" if args.full else "quick"
    failed = False
    for e in params.registry():
        start = time.perf_counter()
        report = params.verify_entry(e, level=level)
        elapsed = time.perf_counter() - start
        if args.json:
            print(json.dumps({"index": e.index, "aligned_bits": e.aligned_bits, "level": level,
                              "checks": dict(report.checks), "elapsed_s": round(elapsed, 6)}))
        else:
            status = "ok" if report.ok else "FAIL " + ", ".join(report.failures())
            print(f"entry {e.index:2d} (aligned {e.aligned_bits:4d}): {status}")
        failed = failed or not report.ok
    return 1 if failed else 0


def _cmd_assemble(args) -> int:
    import hashlib  # only this command pays for it

    message = _read_message(args)
    digest = hashlib.sha256(message).digest()
    try:
        layout = reefshoal.plan_layout(args.modulus_bits, 8 * len(digest),
                                       reserve_bits=args.reserve_bits)
    except ValueError as exc:  # the flags parse, but no classifier fits between them
        _fail(str(exc))
    print(reefshoal.assemble(message, digest, layout).hex().upper())
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="badderlocks",
        description="Message classifier and representative assembly utility.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="print the classifier digest of the input")
    p.add_argument("--bits", type=int, required=True,
                   help="byte-aligned output size selecting the generator")
    p.add_argument("--grouped", action="store_true", help="8-digit hex grouping")
    p.add_argument("--in", dest="infile", metavar="FILE")
    p.add_argument("--stats", action="store_true",
                   help="also write one key=value line to stderr: entry, bits, degree, "
                        "engine path, bytes, the time and rate of reading and absorbing, and "
                        "the two-thread splits the worker took part in of those asked")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("expand", help="print the S-box expanded message polynomial")
    p.add_argument("--grouped", action="store_true")
    p.add_argument("--in", dest="infile", metavar="FILE")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("vectors", help="emit or verify an embedded test-vector suite")
    p.add_argument("--suite", choices=sorted(_SUITES), required=True)
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=_cmd_vectors)

    p = sub.add_parser("verify-params", help="verify the generator registry")
    p.add_argument("--full", action="store_true",
                   help="also test generator irreducibility and the LFSR round-trip")
    p.add_argument("--json", action="store_true",
                   help="one JSON object per entry: index, aligned_bits, level, "
                        "checks (name: passed) and elapsed_s")
    p.set_defaults(func=_cmd_verify_params)

    p = sub.add_parser("assemble", help="print the signature representative")
    p.add_argument("--modulus-bits", type=_positive_byte_multiple, required=True)
    p.add_argument("--reserve-bits", type=_positive_byte_multiple, default=16)
    p.add_argument("--in", dest="infile", metavar="FILE")
    p.set_defaults(func=_cmd_assemble)

    return parser


def dispatch(argv: list[str]) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


def main() -> None:
    if sys.stdout is None:  # the process started with fd 1 closed, where every command writes
        _fail("standard output is closed")
    try:
        status = dispatch(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe raises here, not in the flush at exit
    except BrokenPipeError:
        # stdout goes to devnull so that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
    except (ValueError, KeyError, OSError) as exc:
        _fail(str(exc), 1)
    sys.exit(status)


if __name__ == "__main__":
    main()
