#!/usr/bin/env bash
# The single pre-merge gate: pushlint + mypy (when installed) + tier-1
# pytest + the paper benchmarks + crawl/DetSan smokes + a DetSan pytest run
# + the end-to-end benchmark's own tests.
# Usage: scripts/check.sh [extra pytest args...]
set -u -o pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

failures=0

step() {
    echo
    echo "==> $1"
}

# pushlint runs once over src/repro and benchmarks: the per-file rules
# and the whole-program flow passes, in one uncached process. It must
# exit 0 (no finding) within PUSHLINT_FLOW_BUDGET seconds.
budget="${PUSHLINT_FLOW_BUDGET:-25}"
step "pushlint src/repro benchmarks (under ${budget}s)"
start=$EPOCHREALTIME
python -m repro.analysis src/repro benchmarks || failures=$((failures + 1))
python - "$start" "$EPOCHREALTIME" "$budget" <<'PYEOF' || failures=$((failures + 1))
import sys

start, stop, budget = map(float, sys.argv[1:])
print(f"pushlint run: {stop - start:.2f}s (budget {budget:.0f}s)")
if stop - start > budget:
    sys.exit(f"check.sh: pushlint run blew the {budget:.0f}s budget")
PYEOF

step "mypy (strict: repro.util, repro.analysis)"
if python -c "import mypy" >/dev/null 2>&1; then
    python -m mypy src/repro/util src/repro/analysis || failures=$((failures + 1))
else
    echo "mypy not installed: NOT RUN. This step checked nothing and is not"
    echo "coverage; the strictness ratchet in pyproject.toml is unenforced here."
fi

step "tier-1 pytest (DeprecationWarning is an error)"
python -m pytest -x -q -W error::DeprecationWarning "$@" || failures=$((failures + 1))

# The paper's tables, figures and experiments (pilot, revisit, crawl
# design, ...) against their paper-shape assertions and their pinned
# printouts (PRINTOUT_SHA256 in benchmarks/conftest.py). Nothing here is
# timed: `-p no:benchmark` blocks the timing plugin, so a test that asks
# for its `benchmark` fixture errors even where the plugin is installed.
step "paper benchmarks (python -m pytest -q -p no:benchmark benchmarks)"
python -m pytest -q -p no:benchmark benchmarks || failures=$((failures + 1))

step "crawl smoke (crawl_workers=2 byte-identity at scale 0.015)"
python - <<'PYEOF' || failures=$((failures + 1))
import dataclasses, json

from repro import paper_scenario, run_full_crawl

config = paper_scenario(seed=3, scale=0.015)

def fingerprint(ds):
    return json.dumps(
        [dataclasses.asdict(r) for r in ds.records], sort_keys=True
    )

serial = run_full_crawl(config=config, crawl_workers=1)
sharded = run_full_crawl(config=config, crawl_workers=2, shard_size=4)
assert fingerprint(serial) == fingerprint(sharded), \
    "crawl_workers=2 changed the dataset bytes"
assert serial.summary() == sharded.summary()
print("crawl smoke: workers=2 dataset byte-identical to serial")
PYEOF

# DetSan: rerun the two pipeline halves under the runtime determinism
# sanitizer — filesystem enumeration shuffled, tile submission permuted,
# per-tile checksums verified against canonical recomputes — and demand
# the same output bytes as an unperturbed run. The permutation seed is
# randomized per invocation (printed for replay; pin with DETSAN_SEED).
step "DetSan (crawl_workers=2 byte-identity + mine, absorb and classify sweeps under permuted order)"
DETSAN_SEED="${DETSAN_SEED:-$RANDOM}" python - <<'PYEOF' || failures=$((failures + 1))
import dataclasses, json, os

from repro import PushAdMiner, paper_scenario, run_full_crawl
from repro.analysis.sanitizer import DetSan, _checksum

seed = int(os.environ["DETSAN_SEED"])
print(f"DetSan seed: {seed} (replay with DETSAN_SEED={seed})")
config = paper_scenario(seed=3, scale=0.015)

def fingerprint(ds):
    return json.dumps(
        [dataclasses.asdict(r) for r in ds.records], sort_keys=True
    )

plain = run_full_crawl(config=config, crawl_workers=2, shard_size=4)
with DetSan(seed=seed, verify_tiles=True) as san:
    perturbed = run_full_crawl(config=config, crawl_workers=2, shard_size=4)
assert san.report.streams_permuted > 0, "sanitizer never engaged the crawl"
assert not san.report.divergences, san.report.divergences
assert fingerprint(plain) == fingerprint(perturbed), \
    "crawl bytes changed under permuted tile submission order"
print(
    f"DetSan crawl: byte-identical under {san.report.streams_permuted} "
    f"permuted stream(s), {san.report.tiles_verified} tile(s) verified"
)

# Both exact storages stream their silhouette tiles through
# ExecutionPlan; small tiles give the permutation several tiles to
# shuffle at this scale (the default 512 rows is one tile here).
miner = PushAdMiner.for_dataset(plain, tile_size=64)
baseline = _checksum(miner.run(plain.valid_records))
with DetSan(seed=seed + 1, verify_tiles=True) as san:
    shaken = _checksum(miner.run(plain.valid_records))
assert san.report.streams_permuted > 0, "sanitizer never engaged the dense mine"
assert not san.report.divergences, san.report.divergences
assert baseline == shaken, "miner output changed under DetSan"
print(
    f"DetSan miner: stage sweep identical under "
    f"{san.report.streams_permuted} permuted stream(s) "
    f"({san.report.fs_shuffled} enumeration(s) shuffled, "
    f"{san.report.tiles_checksummed} tile(s) checksummed)"
)

# The sparse mine also streams the blocking kernel through ExecutionPlan.
sparse = PushAdMiner.for_dataset(
    plain, storage="sparse", blocking="url", tile_size=64
)
baseline = _checksum(sparse.run(plain.valid_records))
with DetSan(seed=seed + 2, verify_tiles=True) as san:
    shaken = _checksum(sparse.run(plain.valid_records))
assert san.report.streams_permuted > 0, "sanitizer never engaged the mine"
assert not san.report.divergences, san.report.divergences
assert baseline == shaken, "sparse miner output changed under DetSan"
print(
    f"DetSan sparse miner: identical under "
    f"{san.report.streams_permuted} permuted stream(s), "
    f"{san.report.tiles_verified} tile(s) verified"
)

# The one nearest-row search (nearest_corpus_rows) through each of its
# callers: the dense absorb and serve's classify stream its exhaustive
# tile kernel, the sparse absorb its blocked one. Each must give the same
# AbsorbReport, exported-result hash and response bytes as an
# unperturbed run.
from repro.incremental import IncrementalMiner
from repro.serve import MinedSnapshot, ServeCore, canonical_json

valid = plain.valid_records
base, batch = valid[:-24], valid[-24:]
for offset, storage, blocking in ((3, "dense", "none"), (4, "sparse", "url")):
    mined = PushAdMiner.for_dataset(
        plain, storage=storage, blocking=blocking, tile_size=64
    ).run(base)

    def absorb():
        incremental = IncrementalMiner.from_result(mined)
        report = incremental.absorb(batch)
        return report, MinedSnapshot.from_result(incremental.result()).hash

    baseline = absorb()
    with DetSan(seed=seed + offset, verify_tiles=True) as san:
        shaken = absorb()
    assert san.report.streams_permuted > 0, f"{storage} absorb never permuted"
    assert not san.report.divergences, san.report.divergences
    assert baseline == shaken, f"{storage} absorb changed under DetSan"
    print(
        f"DetSan {storage} absorb: identical under "
        f"{san.report.streams_permuted} permuted stream(s), "
        f"{san.report.tiles_verified} tile(s) verified"
    )

queries = [
    {"title": r.title, "body": r.body, "landing_url": r.landing_url}
    for r in batch
]
core = ServeCore(MinedSnapshot.from_result(mined), tile_size=64, cache_size=0)
baseline = canonical_json(core.classify_batch(queries))
with DetSan(seed=seed + 5, verify_tiles=True) as san:
    shaken = canonical_json(core.classify_batch(queries))
assert san.report.streams_permuted > 0, "sanitizer never engaged classify"
assert not san.report.divergences, san.report.divergences
assert baseline == shaken, "classify responses changed under DetSan"
print(
    f"DetSan classify: byte-identical under "
    f"{san.report.streams_permuted} permuted stream(s), "
    f"{san.report.tiles_verified} tile(s) verified"
)
PYEOF

# The perf and incremental suites (nearest-row kernels, absorb, its fuzz
# property and the convergence contract) once more with a session-wide
# sanitizer installed by REPRO_DETSAN=1.
step "DetSan pytest (REPRO_DETSAN=1 python -m pytest -q tests/perf tests/incremental)"
start=$SECONDS
REPRO_DETSAN=1 python -m pytest -q tests/perf tests/incremental || failures=$((failures + 1))
echo "DetSan pytest step: $((SECONDS - start))s"

# The end-to-end benchmark's own tests: a smoke run of both workloads
# against perfbench's pinned snapshot hash, served checksums and absorb
# accounting, plus a tamper test per check. Wall-time regressions are
# judged by the host-adjusted, bounded perfbench metrics, not here.
step "perfbench (python -m pytest -q perfbench/tests)"
python -m pytest -q perfbench/tests || failures=$((failures + 1))

echo
if [ "$failures" -ne 0 ]; then
    echo "check.sh: FAILED ($failures step(s) failed)"
    exit 1
fi
echo "check.sh: all checks passed"
