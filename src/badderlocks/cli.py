"""Command-line front end.

Subcommands: classify, expand, vectors, verify-params, bench, assemble.
Message input is always raw bytes from stdin or a file, never an argument,
so shell escaping cannot corrupt it.  Exit status 0 means success, 1 means
a verification or vector mismatch, 2 a usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from importlib import resources

from . import classifier, fastcrc, gf2poly, params, reefshoal, sbox

__all__ = ["main", "dispatch"]

_SUITES = {
    "c1": "vectors_c1.txt",
    "c2-fox": "vectors_c2_fox.txt",
    "c2-small": "vectors_c2_small.txt",
    "c2-mixed": "vectors_c2_mixed.txt",
}


def _read_message(args) -> bytes:
    if getattr(args, "infile", None):
        with open(args.infile, "rb") as f:
            return f.read()
    return sys.stdin.buffer.read()


def _entry_for_bits(bits: int) -> params.GeneratorEntry:
    try:
        return params.entry_for_aligned_bits(bits)
    except KeyError as exc:
        # invalid size is a usage error, same exit class as bad flags
        print(f"error: {exc.args[0]}", file=sys.stderr)
        raise SystemExit(2) from None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _expansion_hex(message: bytes, grouped: bool = False) -> str:
    """S-box expansion of message as hex, zero-padded to 9 bits per codeword."""
    width = (9 * max(8, len(message)) + 3) // 4
    return gf2poly.render_hex(sbox.expand_message(message), group=grouped, width=width)


def _cmd_classify(args) -> int:
    entry = _entry_for_bits(args.bits)
    message = _read_message(args)
    if args.engine == "ref":
        digest = classifier.classify(message, entry)
    else:
        digest = fastcrc.engine_init(entry).absorb(message).finish()
    value = gf2poly.BitPolynomial(int.from_bytes(digest.data, "big"))
    print(gf2poly.render_hex(value, group=args.grouped, width=2 * len(digest.data)))
    return 0


def _cmd_expand(args) -> int:
    print(_expansion_hex(_read_message(args), grouped=args.grouped))
    return 0


def _load_suite(name: str) -> list[tuple[int, bytes, str]]:
    rows = []
    text = resources.files("badderlocks.data").joinpath(_SUITES[name]).read_text()
    for line in text.splitlines():
        bits_s, input_spec, expected = line.split("\t")
        if input_spec.startswith("hex:"):
            message = bytes.fromhex(input_spec[4:])
        elif input_spec.startswith("text:"):
            message = input_spec[5:].encode("ascii")
        else:
            raise ValueError(f"bad input specifier {input_spec!r}")
        rows.append((int(bits_s), message, expected))
    return rows


def _compute_vector(suite: str, bits: int, message: bytes) -> str:
    if suite == "c1":
        return _expansion_hex(message)
    return classifier.classify(message, _entry_for_bits(bits)).hex()


def _cmd_vectors(args) -> int:
    rows = _load_suite(args.suite)
    if not args.check:
        text = resources.files("badderlocks.data").joinpath(_SUITES[args.suite]).read_text()
        sys.stdout.write(text)
        return 0
    failures = 0
    for bits, message, expected in rows:
        got = _compute_vector(args.suite, bits, message)
        if got != expected:
            failures += 1
            print(f"MISMATCH bits={bits} message={message.hex()} "
                  f"expected={expected} got={got}")
    print(f"{len(rows) - failures}/{len(rows)} vectors match")
    return 1 if failures else 0


def _cmd_verify_params(args) -> int:
    level = "full" if args.full else "quick"
    failed = False
    for e in params.registry():
        report = params.verify_entry(e, level=level)
        status = "ok" if report.ok else "FAIL " + ", ".join(report.failures())
        print(f"entry {e.index:2d} (aligned {e.aligned_bits:4d}): {status}")
        failed = failed or not report.ok
    return 1 if failed else 0


def _cmd_bench(args) -> int:
    entry = _entry_for_bits(args.bits)
    data = os.urandom(args.size * 1024 * 1024)
    fastcrc.engine_init(entry)  # build tables outside the timed region
    t0 = time.perf_counter()
    fast = fastcrc.engine_init(entry).absorb(data).finish()
    t_fast = time.perf_counter() - t0
    t0 = time.perf_counter()
    ref = classifier.classify(data, entry)
    t_ref = time.perf_counter() - t0
    if fast.data != ref.data:
        print("ENGINE MISMATCH on benchmark input")
        return 1
    print(f"engine=fast bytes_per_second={int(len(data) / t_fast)}")
    print(f"engine=ref bytes_per_second={int(len(data) / t_ref)}")
    return 0


def _cmd_assemble(args) -> int:
    message = _read_message(args)
    digest = hashlib.sha256(message).digest()
    layout = reefshoal.plan_layout(args.modulus_bits, 8 * len(digest),
                                   reserve_bits=args.reserve_bits)
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
    p.add_argument("--engine", choices=("ref", "fast"), default="fast")
    p.add_argument("--grouped", action="store_true", help="8-digit hex grouping")
    p.add_argument("--in", dest="infile", metavar="FILE")
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
    p.set_defaults(func=_cmd_verify_params)

    p = sub.add_parser("bench", help="compare engine throughput on random data")
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--size", type=_positive_int, required=True, metavar="MEBIBYTES")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("assemble", help="print the signature representative")
    p.add_argument("--modulus-bits", type=int, required=True)
    p.add_argument("--hash", choices=("sha256",), default="sha256")
    p.add_argument("--reserve-bits", type=int, default=16)
    p.add_argument("--in", dest="infile", metavar="FILE")
    p.set_defaults(func=_cmd_assemble)

    return parser


def dispatch(argv: list[str]) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


def main() -> None:
    try:
        sys.exit(dispatch(sys.argv[1:]))
    except SystemExit:
        raise
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
