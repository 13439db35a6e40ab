import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from badderlocks import classifier, cli, fastcrc, params
from badderlocks.cli import dispatch

FOX = b"The quick brown fox jumps over the lazy dog"


def run(capsys, monkeypatch, argv, stdin=b""):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin)))
    code = dispatch(argv)
    out = capsys.readouterr().out
    return code, out


class TestClassify:
    def test_fox_fast(self, capsys, monkeypatch):
        code, out = run(capsys, monkeypatch,
                        ["classify", "--bits", "64"], stdin=FOX)
        assert code == 0
        assert out.strip() == "4A0B6AAA2BA80913"

    def test_engines_agree(self, capsys, monkeypatch, tmp_path):
        f = tmp_path / "m.bin"
        f.write_bytes(b"\x00\xff" * 100)
        _, out = run(capsys, monkeypatch,
                     ["classify", "--bits", "320", "--in", str(f)])
        ref = classifier.classify(f.read_bytes(), params.entry_for_aligned_bits(320))
        assert out.strip() == ref.hex()

    def test_grouped_output(self, capsys, monkeypatch):
        _, out = run(capsys, monkeypatch,
                     ["classify", "--bits", "64", "--grouped"], stdin=FOX)
        assert out.strip() == "4A0B6AAA 2BA80913"

    def test_bad_bits_is_usage_error(self, capsys, monkeypatch):
        with pytest.raises(SystemExit) as exc:
            run(capsys, monkeypatch, ["classify", "--bits", "60"], stdin=b"")
        assert exc.value.code == 2

    def test_missing_file_is_usage_error(self, capsys, monkeypatch, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(capsys, monkeypatch,
                ["classify", "--bits", "64", "--in", str(tmp_path / "absent")])
        assert exc.value.code == 2
        assert "absent" in capsys.readouterr().err

    def test_reads_input_in_chunks(self, capsys, monkeypatch, tmp_path):
        f = tmp_path / "m.bin"
        f.write_bytes(random.Random(40).randbytes(3 * 65536 + 5))
        sizes = []
        absorb = fastcrc.CrcEngine.absorb

        def recording_absorb(engine, chunk):
            sizes.append(len(chunk))
            return absorb(engine, chunk)

        monkeypatch.setattr(fastcrc.CrcEngine, "absorb", recording_absorb)
        code, out = run(capsys, monkeypatch, ["classify", "--bits", "1744", "--in", str(f)])
        assert code == 0
        want = classifier.classify(f.read_bytes(), params.entry_for_aligned_bits(1744))
        assert out.strip() == want.hex()
        assert sizes == [65536, 65536, 65536, 5]
        with pytest.raises(SystemExit) as exc:
            run(capsys, monkeypatch, ["classify", "--bits", "64", "--in", str(tmp_path)])
        assert exc.value.code == 2

    def test_stats_line(self, capsys, monkeypatch):
        argv = ["classify", "--bits", "1744", "--grouped"]
        _, plain = run(capsys, monkeypatch, argv, stdin=FOX)
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(FOX)))
        assert dispatch([*argv, "--stats"]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain
        fields = stats_fields(captured.err)
        # the keys before splits are the line's from before it counted splits
        assert list(fields) == ["entry", "bits", "degree", "path", "bytes", "elapsed_s",
                                "mib_per_s", "splits"]
        e = params.entry_for_aligned_bits(1744)
        assert fields["entry"] == str(e.index) and fields["bits"] == "1744"
        assert fields["degree"] == str(e.degree)
        assert fields["path"] == fastcrc.engine_init(e).path
        assert fields["bytes"] == str(len(FOX))
        assert float(fields["elapsed_s"]) > 0 and float(fields["mib_per_s"]) > 0
        assert fields["splits"] == "0/0"  # 43 bytes do not split

    def test_stats_count_splits(self, capsys, tmp_path):
        # splits=<taken>/<asked>: where two CPUs run a carry-less path each 64 KiB chunk
        # asks for a split, and a forked child pinned to one CPU asks for none
        f = tmp_path / "m.bin"
        f.write_bytes(random.Random(3).randbytes(3 * 65536 + 5))
        argv = ["classify", "--bits", "1744", "--in", str(f), "--stats"]
        if hasattr(os, "sched_setaffinity"):
            assert pinned_to_one_cpu(lambda: splits_field(argv)) == "0/0"
        assert dispatch(argv) == 0
        taken, asked = map(int, stats_fields(capsys.readouterr().err)["splits"].split("/"))
        path = fastcrc.engine_init(params.entry_for_aligned_bits(1744)).path
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        splitting = path in ("vpclmul", "clmul") and cpus >= 2
        assert asked == (3 if splitting else 0) and 0 <= taken <= asked


def splits_field(argv: list[str]) -> str:
    """The splits field of the --stats line that dispatch(argv) writes to standard error."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert dispatch(argv) == 0
    return stats_fields(err.getvalue())["splits"]


def pinned_to_one_cpu(op):
    """What op() returns in a forked child that pins itself to one CPU first."""
    context = multiprocessing.get_context("fork")
    reader, writer = context.Pipe(duplex=False)

    def child():
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        writer.send(op())

    process = context.Process(target=child)
    process.start()
    try:
        assert reader.poll(60), "no answer from the child"
        return reader.recv()
    finally:
        process.join(timeout=60)
        if process.is_alive():
            process.kill()


def stats_fields(err: str) -> dict[str, str]:
    """The key=value fields of the one line `classify --stats` writes to standard error."""
    (line,) = err.splitlines()
    return dict(token.split("=") for token in line.split())


class TestExpand:
    def test_empty_message(self, capsys, monkeypatch):
        code, out = run(capsys, monkeypatch, ["expand"], stdin=b"")
        assert code == 0
        assert out.strip() == "2391C8E472391C8E47"

    def test_known_row(self, capsys, monkeypatch):
        _, out = run(capsys, monkeypatch, ["expand"], stdin=b"pqrstuvw")
        assert out.strip() == "6E385C4E372395CCE7"

    def test_directory_is_usage_error(self, capsys, monkeypatch, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(capsys, monkeypatch, ["expand", "--in", str(tmp_path)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestVectors:
    @pytest.mark.parametrize("suite,count", [
        ("c1", 32), ("c2-fox", 30), ("c2-small", 20), ("c2-mixed", 2),
    ])
    def test_check_all_suites(self, capsys, monkeypatch, suite, count):
        code, out = run(capsys, monkeypatch,
                        ["vectors", "--suite", suite, "--check"])
        assert code == 0
        assert f"{count}/{count} vectors match" in out

    def test_check_catches_a_wrong_engine(self, capsys, monkeypatch):
        def wrong_finish(self):
            digest = real_finish(self)
            return classifier.ClassifierDigest(bytes(len(digest.data)), digest.entry)

        real_finish = fastcrc.CrcEngine.finish
        monkeypatch.setattr(fastcrc.CrcEngine, "finish", wrong_finish)
        code, out = run(capsys, monkeypatch,
                        ["vectors", "--suite", "c2-mixed", "--check"])
        assert code == 1
        assert out.count("MISMATCH engine ") == 2
        assert "MISMATCH reference" not in out
        assert "0/2 vectors match" in out

    def test_emit_is_tab_separated(self, capsys, monkeypatch):
        code, out = run(capsys, monkeypatch, ["vectors", "--suite", "c2-mixed"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert all(len(line.split("\t")) == 3 for line in lines)


class TestVerifyParams:
    def test_closed_pipe_is_not_an_error(self):
        # `verify-params | head -1` once head has left: the child's standard output is a
        # pipe whose reader is closed before the child starts, so its first line, which -u
        # writes at once, meets a closed pipe however fast the entries verify
        src = Path(fastcrc.__file__).parents[1]
        reader, writer = os.pipe()
        os.close(reader)
        try:
            child = subprocess.run([sys.executable, "-u", "-m", "badderlocks", "verify-params"],
                                   stdout=writer, stderr=subprocess.PIPE, timeout=120,
                                   env={**os.environ, "PYTHONPATH": str(src)})
        finally:
            os.close(writer)
        assert child.returncode == 141
        assert child.stderr == b""

    def test_quick(self, capsys, monkeypatch):
        code, out = run(capsys, monkeypatch, ["verify-params"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 30
        assert all(line.endswith("ok") for line in lines)

    def test_json_names_the_failing_check(self, capsys, monkeypatch):
        verify_entry = params.verify_entry

        def one_check_fails(e, level="quick"):
            report = verify_entry(e, level)
            if e.index != 5:
                return report
            (name, _), *rest = report.checks
            return report._replace(checks=((name, False), *rest))

        monkeypatch.setattr(params, "verify_entry", one_check_fails)
        code, out = run(capsys, monkeypatch, ["verify-params", "--json"])
        assert code == 1
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["index"] for r in rows] == list(range(1, 31))
        assert {r["level"] for r in rows} == {"quick"}
        assert all(r["elapsed_s"] >= 0 for r in rows)
        failing = {(r["index"], name) for r in rows
                   for name, passed in r["checks"].items() if not passed}
        assert failing == {(5, "target matches size formula")}
        assert rows[4]["aligned_bits"] == 320 and len(rows[4]["checks"]) > 1


class TestAssemble:
    def test_fox_336(self, capsys, monkeypatch):
        code, out = run(capsys, monkeypatch,
                        ["assemble", "--modulus-bits", "336"], stdin=FOX)
        assert code == 0
        expected = ("0001" + "4A0B6AAA2BA80913"
                    + hashlib.sha256(FOX).hexdigest().upper())
        assert out.strip() == expected

    def test_too_small_modulus(self, capsys, monkeypatch):
        with pytest.raises(SystemExit) as exc:
            run(capsys, monkeypatch,
                ["assemble", "--modulus-bits", "128"], stdin=b"x")
        assert exc.value.code == 2
        assert "minimum feasible modulus is 336 bits" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--modulus-bits", "2050"), ("--modulus-bits", "0"),
        ("--reserve-bits", "7"), ("--reserve-bits", "-8"), ("--reserve-bits", "0"),
    ])
    def test_bad_field_width_is_usage_error(self, capsys, monkeypatch, flag, value):
        argv = ["assemble", "--modulus-bits", "2048", flag, value]
        with pytest.raises(SystemExit) as exc:
            run(capsys, monkeypatch, argv, stdin=b"x")
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err  # rejected while parsing

    def test_unknown_hash_is_usage_error(self, capsys, monkeypatch):
        with pytest.raises(SystemExit) as exc:
            run(capsys, monkeypatch,
                ["assemble", "--modulus-bits", "336", "--hash", "md5"], stdin=FOX)
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["classify", "--bits", "64"], ["expand"],
                                  ["assemble", "--modulus-bits", "2048"]])
def test_closed_stdin_is_unreadable_input(argv):
    # `badderlocks ... <&-`: the interpreter starts with fd 0 closed, so sys.stdin is None,
    # which each command that reads the input reports as unreadable, without a traceback
    src = Path(fastcrc.__file__).parents[1]
    child = subprocess.run(["sh", "-c", 'exec "$@" <&-', "sh", sys.executable, "-m",
                            "badderlocks", *argv], capture_output=True, text=True, timeout=120,
                           env={**os.environ, "PYTHONPATH": str(src)})
    assert child.returncode == 2, child.stderr
    assert child.stderr.startswith("error: ") and "Traceback" not in child.stderr


@pytest.mark.parametrize("argv", [["classify", "--bits", "64"], ["expand"],
                                  ["vectors", "--suite", "c1"], ["verify-params"],
                                  ["assemble", "--modulus-bits", "2048"]])
def test_closed_stdout_is_a_usage_error(argv):
    # `badderlocks ... >&-`: the interpreter starts with fd 1 closed, so sys.stdout is None,
    # where every command writes; each says so on stderr and exits 2, without a traceback
    src = Path(fastcrc.__file__).parents[1]
    child = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m",
                            "badderlocks", *argv], input=b"abc", capture_output=True,
                           timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
    assert child.returncode == 2, child.stderr
    assert child.stderr == b"error: standard output is closed\n"


@pytest.mark.parametrize("argv,code,out", [
    (["classify", "--bits", "99"], 2, b""),
    (["assemble", "--modulus-bits", "8"], 2, b""),
    (["classify", "--bits", "64", "--stats"], 0, b"4571064C14E8916E\n"),
])
def test_closed_stderr_keeps_stdout_to_the_output(argv, code, out):
    # `badderlocks ... 2>&-`: sys.stderr is None, and print(file=None) would write an error
    # line or the --stats line to stdout; each is dropped, and the status stays
    src = Path(fastcrc.__file__).parents[1]
    child = subprocess.run(["sh", "-c", 'exec "$@" 2>&-', "sh", sys.executable, "-m",
                            "badderlocks", *argv], input=b"abc", capture_output=True,
                           timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
    assert (child.returncode, child.stdout, child.stderr) == (code, out, b"")


@pytest.mark.parametrize("argv,fault,code", [
    (["classify", "--bits", "99"], None, 2),
    (["verify-params"], OSError("unreadable"), 1),
    (["classify", "--bits", "64", "--stats"], None, 0),
])
def test_unwritable_stderr_gives_no_traceback(capsys, monkeypatch, argv, fault, code):
    # a stderr on a descriptor that is no longer open, as some shells leave it: writing the
    # error line or the --stats line raises OSError, which main neither reports twice nor
    # lets through; a command that succeeds prints the digest of stdin's "abc" and exits 0
    def fail(*args):
        raise fault

    class Unwritable(io.StringIO):
        def write(self, text):
            raise OSError(9, "Bad file descriptor")

    if fault:
        monkeypatch.setattr(cli, "dispatch", fail)
    monkeypatch.setattr("sys.argv", ["badderlocks", *argv])
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"abc")))
    monkeypatch.setattr("sys.stderr", Unwritable())
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == code
    assert capsys.readouterr().out == ("4571064C14E8916E\n" if code == 0 else "")


def test_no_site_run_imports_neither_resources_nor_pathlib():
    # the package finds its data and C sources by os.path next to its modules, so a run
    # without site, which imports neither itself, loads neither importlib.resources nor
    # pathlib with its urllib.parse; -S also drops an editable install, hence PYTHONPATH
    src = Path(fastcrc.__file__).parents[1]
    probe = ("import sys\n"
             "from badderlocks import cli\n"
             "assert cli.dispatch(['vectors', '--suite', 'c1', '--check']) == 0\n"
             "assert cli.dispatch(['classify', '--bits', '1744', '--in', cli.__file__]) == 0\n"
             "print(sorted({'importlib.resources', 'pathlib', 'urllib.parse'} & set(sys.modules)))")
    child = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                           timeout=300, env={**os.environ, "PYTHONPATH": str(src)})
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1] == "[]"
