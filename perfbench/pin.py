"""Regenerate ``perfbench/pins.json``, the values the benchmark checks.

    python3 perfbench/pin.py

Run from the repository root after a change that is *meant* to alter what
the program computes on the benchmark's world; review the diff of
``pins.json`` before committing it.  For each profile it pins the batch
mine (snapshot hash and summary), the answers to classifying every
held-out record, the checksum of serve round 0 at ``run.PIN_SEED``, and
each absorbed batch's assigned/opened counts and summary digest.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import deploy as d  # noqa: E402
from run import PIN_SEED  # noqa: E402


def pins_for(profile: d.Profile) -> dict:
    mined = d.mine_world(profile.scale)
    held = mined.held_out
    stream = d.request_stream(mined.snapshot, held, profile.round_requests,
                              PIN_SEED * 1000)
    cycle = d.AbsorbCycle(mined, profile.batches, workers=1, seed=PIN_SEED)
    batches = [cycle.step() for _ in cycle.batches]
    return {
        "snapshot_hash": mined.snapshot.hash,
        "summary": mined.result.summary(),
        "classify_digest": d.classify_digest(mined.snapshot, held),
        "round 0": d.checksum(d.Oracle(mined.snapshot, held).bodies(stream)),
        "batches": [[b.report.assigned, b.report.opened, b.summary_digest]
                    for b in batches],
    }


def main() -> None:
    pins = {str(p.scale): pins_for(p) for p in (d.FULL, d.SMOKE)}
    with open(HERE / "pins.json", "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
