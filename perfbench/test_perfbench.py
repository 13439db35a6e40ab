"""Self-tests of the benchmark harness.

Run from the root of the checkout:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import repo  # noqa: E402

repo.import_library()
import calib  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = [float(v) for v in range(1, 101)]
    random.Random(0).shuffle(samples)
    value, percentile, count = worker.tail(samples)
    assert (value, percentile, count) == (90.0, 90.0, 100)
    assert sum(s > value for s in samples) == 10

    value, percentile, count = worker.tail([float(v) for v in range(2010)])
    assert (value, count) == (1999.0, 2010)
    assert percentile == pytest.approx(100 * 2000 / 2010)

    assert worker.tail([float(v) for v in range(11)])[:2] == (0.0, 100 / 11)
    with pytest.raises(ValueError):
        worker.tail([1.0] * 10)


def test_pass_stats_reports_tail_percentile_and_sample_count():
    stats = worker.pass_stats([0.001] * 90 + [0.002] * 10 + [0.003] * 10, nbytes=1 << 20)
    assert stats["tail_samples"] == 110
    assert stats["tail_percentile"] == pytest.approx(100 * 100 / 110)
    assert stats["op_tail_ms"] == pytest.approx(2.0)
    assert stats["op_p50_ms"] == pytest.approx(1.0)
    assert stats["ops_per_s"] == pytest.approx(110 / 0.14)
    assert stats["mib_per_s"] == pytest.approx(1 / 0.14)


def test_calibration_scales_each_op_by_the_slices_around_it():
    now = [0.0]
    step = [2 * calib.REFERENCE_S]

    def clock():  # a slice spans two readings, so it takes one step
        now[0] += step[0]
        return now[0]

    speed = calib.Speed(clock)
    assert len(speed.slices) == calib.NEAR
    speed.maybe_sample()  # not due yet
    assert len(speed.slices) == calib.NEAR
    op_start = now[0]
    now[0] += calib.EVERY_S
    step[0] = 4 * calib.REFERENCE_S  # the host slows down during the op
    for _ in range(calib.NEAR):
        speed.maybe_sample()
        now[0] += calib.EVERY_S
    # Two slices at half speed before the op and two at quarter speed after it.
    assert speed.scale(op_start, op_start + 0.001) == pytest.approx(1 / 3)
    # With no slices after it, an op is scaled by the slices before it.
    assert speed.scale(now[0], now[0]) == pytest.approx(0.25)


def test_self_time_subtracts_nested_spans():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    a = tracer.open("a")          # 0 .. 10
    b = tracer.open("b")          # 1 .. 5
    d = tracer.open("d")          # 2 .. 4, child of b
    tracer.close(d)
    tracer.close(b)
    c = tracer.open("c")          # 6 .. 8
    tracer.close(c)
    tracer.close(a)
    assert tracer.parents == [-1, 0, 1, 0]
    assert tracer.durations() == [10.0, 4.0, 2.0, 2.0]
    assert tracer.self_times() == [4.0, 2.0, 2.0, 2.0]


def test_install_records_each_layer_and_restore_removes_every_wrapper():
    from badderlocks import classifier, fastcrc, gf2poly, reefshoal, sbox

    before = (classifier.classify, sbox.expand_message, gf2poly.remainder,
              reefshoal.assemble, fastcrc.CrcEngine.finish, workloads.sha256)
    tracer = spans.Tracer()
    restore = spans.install(tracer, workloads)
    try:
        workloads.sign_short(2048, b"abc")
        workloads.digest_short(workloads.params.entry_for_aligned_bits(416), b"abc")
    finally:
        restore()
    assert {"hash.sha256", "reefshoal.plan_layout", "reefshoal.assemble", "classifier.classify",
            "sbox.expand_message", "gf2poly.remainder", "fastcrc.engine_init",
            "fastcrc.absorb", "fastcrc.finish"} <= set(tracer.names)
    parent = tracer.parents[tracer.names.index("classifier.classify")]
    assert tracer.names[parent] == "reefshoal.assemble"
    assert (classifier.classify, sbox.expand_message, gf2poly.remainder,
            reefshoal.assemble, fastcrc.CrcEngine.finish, workloads.sha256) == before


@pytest.mark.parametrize("workload", workloads.OPS)
def test_one_seed_gives_one_op_sequence(workload):
    ops = workloads.make_ops(workload, 7)
    assert ops == workloads.make_ops(workload, 7)
    assert ops != workloads.make_ops(workload, 8)
    assert len(ops) == workloads.PASS_OPS[workload]


def test_short_workloads_cover_every_key_equally_and_cross_the_filler_boundary():
    ops = workloads.make_ops("digest-short", 1)
    per_entry = {}
    for entry, _ in ops:
        per_entry[entry.index] = per_entry.get(entry.index, 0) + 1
    assert sorted(per_entry) == list(range(1, 31)) and set(per_entry.values()) == {67}
    lengths = [len(m) for _, m in ops]
    assert sum(n <= 16 for n in lengths) == round(0.3 * len(ops))
    assert min(lengths) == 0 and max(lengths) == 256
    assert any(n < 8 for n in lengths) and any(8 <= n <= 16 for n in lengths)

    moduli = [key for key, _ in workloads.make_ops("sign-short", 1)]
    assert {m: moduli.count(m) for m in set(moduli)} == {1024: 200, 2048: 200, 3072: 200, 4096: 200}


def test_flipped_digest_bit_is_a_counted_failure():
    ops = workloads.make_ops("digest-short", 3)[:40]
    expected = workloads.oracle("digest-short", ops)
    outputs = [workloads.digest_short(key, m) for key, m in ops]
    assert workloads.mismatches(outputs, expected) == 0
    flipped = bytearray(outputs[5])
    flipped[-1] ^= 0x01
    outputs[5] = bytes(flipped)
    outputs[9] = None  # an op that raised
    assert workloads.mismatches(outputs, expected) == 2


def _bench(*args, cwd=repo.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_flipped_oracle_bit_raises_fail_ratio_and_exit_status():
    seed = 990_001
    ops = workloads.make_ops("digest-short", seed)
    path = workloads.expected_path("digest-short", seed, ops)
    good = path.read_text()
    values = json.loads(good)
    values[3] = f"{int(values[3], 16) ^ 1:0{len(values[3])}x}"
    try:
        path.write_text(json.dumps(values))
        proc = _bench("--workload", "digest-short", "--seed", str(seed), "--seconds", "0.2")
    finally:
        path.write_text(good)
    assert proc.returncode == 1, proc.stderr
    *_, info, result = proc.stdout.splitlines()
    result, info = json.loads(result), json.loads(info)
    assert result["correct"] is False
    assert result["failed"] >= 1 and info["fail_ratio"] == result["failed"] / result["attempted"] > 0


def test_fails_without_printing_a_result_when_the_library_is_absent(tmp_path):
    shutil.copy(repo.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(repo.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".cache", "out"))
    proc = _bench("--workload", "digest-short", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_layer_map_names_every_per_layer_metric():
    spec = json.loads((repo.ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((repo.HERE / "layers.json").read_text())
    mapped = {m for layer in layers["layers"].values() for m in layer}
    assert mapped == {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.OPS)
