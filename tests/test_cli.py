import hashlib
import io

import pytest

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
        _, fast = run(capsys, monkeypatch,
                      ["classify", "--bits", "320", "--in", str(f)])
        _, ref = run(capsys, monkeypatch,
                     ["classify", "--bits", "320", "--engine", "ref",
                      "--in", str(f)])
        assert fast == ref

    def test_grouped_output(self, capsys, monkeypatch):
        _, out = run(capsys, monkeypatch,
                     ["classify", "--bits", "64", "--grouped"], stdin=FOX)
        assert out.strip() == "4A0B6AAA 2BA80913"

    def test_bad_bits_is_usage_error(self, capsys, monkeypatch):
        with pytest.raises(SystemExit) as exc:
            run(capsys, monkeypatch, ["classify", "--bits", "60"], stdin=b"")
        assert exc.value.code == 2


class TestExpand:
    def test_empty_message(self, capsys, monkeypatch):
        code, out = run(capsys, monkeypatch, ["expand"], stdin=b"")
        assert code == 0
        assert out.strip() == "2391C8E472391C8E47"

    def test_known_row(self, capsys, monkeypatch):
        _, out = run(capsys, monkeypatch, ["expand"], stdin=b"pqrstuvw")
        assert out.strip() == "6E385C4E372395CCE7"


class TestVectors:
    @pytest.mark.parametrize("suite,count", [
        ("c1", 32), ("c2-fox", 30), ("c2-small", 20), ("c2-mixed", 2),
    ])
    def test_check_all_suites(self, capsys, monkeypatch, suite, count):
        code, out = run(capsys, monkeypatch,
                        ["vectors", "--suite", suite, "--check"])
        assert code == 0
        assert f"{count}/{count} vectors match" in out

    def test_emit_is_tab_separated(self, capsys, monkeypatch):
        code, out = run(capsys, monkeypatch, ["vectors", "--suite", "c2-mixed"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert all(len(line.split("\t")) == 3 for line in lines)


class TestVerifyParams:
    def test_quick(self, capsys, monkeypatch):
        code, out = run(capsys, monkeypatch, ["verify-params"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 30
        assert all(line.endswith("ok") for line in lines)


class TestBench:
    @pytest.mark.parametrize("size", ["-1", "0"])
    def test_nonpositive_size_is_usage_error(self, capsys, monkeypatch, size):
        with pytest.raises(SystemExit) as exc:
            run(capsys, monkeypatch, ["bench", "--bits", "64", "--size", size])
        assert exc.value.code == 2


class TestAssemble:
    def test_fox_336(self, capsys, monkeypatch):
        code, out = run(capsys, monkeypatch,
                        ["assemble", "--modulus-bits", "336"], stdin=FOX)
        assert code == 0
        expected = ("0001" + "4A0B6AAA2BA80913"
                    + hashlib.sha256(FOX).hexdigest().upper())
        assert out.strip() == expected

    def test_too_small_modulus(self, capsys, monkeypatch):
        with pytest.raises(ValueError):
            run(capsys, monkeypatch,
                ["assemble", "--modulus-bits", "128"], stdin=b"x")

    def test_unknown_hash_is_usage_error(self, capsys, monkeypatch):
        with pytest.raises(SystemExit) as exc:
            run(capsys, monkeypatch,
                ["assemble", "--modulus-bits", "336", "--hash", "md5"], stdin=FOX)
        assert exc.value.code == 2
