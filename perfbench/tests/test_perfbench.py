"""The benchmark's own tests: a tiny-world smoke of every workload, and
proof that each correctness check fails when one output is tampered.

    python3 -m pytest perfbench/tests -q

Run from the repository root.  The smoke runs ``perfbench/run.py --smoke``
as the driver would; the tamper tests feed the checks real outputs of the
tiny world with one value changed.
"""

import dataclasses
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import deploy  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402

PROFILE = deploy.SMOKE
PINS = json.loads((BENCH / "pins.json").read_text())[str(PROFILE.scale)]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def invoke(cwd, *args):
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    done = invoke(ROOT, "--workload", workload, "--seed", "7",
                  "--seconds", "1", "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in named}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_without_program_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = invoke(tmp_path, "--workload", "study", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_host_speed_factor_scales_walls_by_the_probes_inside(monkeypatch):
    ref = hostspeed.REFERENCE_S
    fast = [(float(t), ref) for t in range(10)]
    slow = [(float(t), 2 * ref) for t in range(10, 20)]
    monkeypatch.setattr(hostspeed, "timeline", fast + slow)
    assert hostspeed.factor(0, 9) == 1.0
    assert hostspeed.factor(10, 19) == 0.5
    assert run.adjusted(9.0, 10.0) == 4.5
    # Too few probes inside: every probe of the run counts.
    assert hostspeed.factor(9.5, 11.5) == ref / statistics.median(
        [p for _, p in fast + slow])


def test_a_serve_round_leaves_its_probes_out_of_its_wall(tiny):
    mined = tiny[0]
    stream = deploy.request_stream(mined.snapshot, mined.held_out, 200, 1)
    calls = []

    def probe():
        calls.append(1)
        time.sleep(0.002)
        return 0.002

    served = deploy.serve_round(mined.snapshot, stream, probe=probe)
    assert len(calls) == len(stream) // deploy.PROBE_EVERY
    spent = served.end - served.start
    assert 0 < served.wall == pytest.approx(spent - 0.002 * len(calls))


@pytest.fixture(scope="module")
def tiny():
    """The smoke world mined, round 0 of the pinned seed served, and every
    held-out batch absorbed, with each record of each batch probed."""
    mined = deploy.mine_world(PROFILE.scale)
    stream = deploy.request_stream(mined.snapshot, mined.held_out,
                                   PROFILE.round_requests, run.PIN_SEED * 1000)
    served = deploy.serve_round(mined.snapshot, stream)
    expected = deploy.Oracle(mined.snapshot, mined.held_out).bodies(stream)
    cycle = deploy.AbsorbCycle(mined, PROFILE.batches, workers=1, seed=3)
    batches, probes = [], []
    for _ in cycle.batches:
        batches.append(cycle.step())
        probes.append([cycle.probe(i) for i in range(len(cycle.batches[
            cycle.done - 1]))])
    return mined, served, expected, batches, probes


def test_untampered_outputs_pass_every_check(tiny):
    mined, served, expected, batches, probes = tiny
    assert run.check_mine(mined.snapshot.hash, mined.result.summary(),
                          PINS) == []
    assert run.check_round(served, expected) == []
    assert run.check_checksum(served.checksum(), PINS) == []
    for index, batch in enumerate(batches):
        assert run.check_batch(batch, PINS["batches"][index]) == []
        for probe in probes[index]:
            assert run.check_batch(dataclasses.replace(batch, probe=probe),
                                   PINS["batches"][index]) == []


def test_a_flipped_snapshot_hash_fails_the_mine_check(tiny):
    mined = tiny[0]
    flipped = ("0" if mined.snapshot.hash[0] != "0" else "1") \
        + mined.snapshot.hash[1:]
    assert run.check_mine(flipped, mined.result.summary(), PINS)
    summary = dict(mined.result.summary(), wpn_clusters=-1)
    assert run.check_mine(mined.snapshot.hash, summary, PINS)


def test_a_wrong_checksum_fails_the_pin_check(tiny):
    checksum = tiny[1].checksum()
    wrong = ("0" if checksum[0] != "0" else "1") + checksum[1:]
    assert run.check_checksum(wrong, PINS)


def test_a_wrong_answer_fails_the_round_check(tiny):
    served, expected = tiny[1], tiny[2]
    bodies = list(served.bodies)
    bodies[len(bodies) // 2] = bodies[len(bodies) // 2].replace(b"true", b"false", 1) \
        if b"true" in bodies[len(bodies) // 2] else b"{}\n"
    tampered = dataclasses.replace(served, bodies=bodies)
    assert tampered.checksum() != served.checksum()
    assert run.check_round(tampered, expected)
    statuses = ["404 Not Found"] + list(served.statuses[1:])
    assert run.check_round(dataclasses.replace(served, statuses=statuses),
                           expected)


def misassigned(probe, cluster_id):
    campaign = dict(probe.answer["campaign"], cluster_id=cluster_id)
    return dataclasses.replace(probe, answer=dict(probe.answer, campaign=campaign))


def test_a_misassigned_probe_fails_the_batch_check(tiny):
    batch = tiny[3][0]
    probe = misassigned(batch.probe, batch.probe.label + 1)
    assert run.check_batch(dataclasses.replace(batch, probe=probe),
                           PINS["batches"][0])
    assert run.check_batch(batch, PINS["batches"][1])


def test_only_an_identical_record_of_the_batch_may_answer_a_probe(tiny):
    """A probe answered with another record's campaign passes only when that
    record is identical to it, earlier, and in the same batch."""
    batches, probes = tiny[3], tiny[4]
    found = [(index, p) for index, batch in enumerate(probes) for p in batch
             if run.split_duplicate(p)]
    if not found:
        pytest.skip("no identical records inside one batch of the smoke world")
    index, probe = found[0]
    pin, batch = PINS["batches"][index], batches[index]
    assert run.check_batch(dataclasses.replace(batch, probe=probe), pin) == []
    for tampered in (dataclasses.replace(probe, identical=False),
                     dataclasses.replace(probe, batch_start=probe.nearest + 1),
                     misassigned(probe, probe.nearest_label + 1)):
        assert run.check_batch(dataclasses.replace(batch, probe=tampered), pin)
