#!/usr/bin/env bash
# The single pre-merge gate: pushlint + mypy (when installed) + tier-1 pytest.
# Usage: scripts/check.sh [extra pytest args...]
set -u -o pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

failures=0

step() {
    echo
    echo "==> $1"
}

# pushlint runs once per mode, each run covering the per-file rules and
# the whole-program --flow passes over src/repro and benchmarks: a cold
# serial run without a cache, a cold --flow-workers 2 run into a fresh
# cache that must print the same bytes and fit PUSHLINT_FLOW_COLD_BUDGET,
# and a run from that cache that must fit PUSHLINT_FLOW_BUDGET — the
# property that lets --flow sit in this gate. Budgets are in seconds.
step "pushlint --flow (cold serial, cold --flow-workers 2 under ${PUSHLINT_FLOW_COLD_BUDGET:-25}s, cached under ${PUSHLINT_FLOW_BUDGET:-10}s)"
python - "${PUSHLINT_FLOW_COLD_BUDGET:-25}" "${PUSHLINT_FLOW_BUDGET:-10}" <<'PYEOF' || failures=$((failures + 1))
import os, subprocess, sys, tempfile, time

cold_budget, cached_budget = float(sys.argv[1]), float(sys.argv[2])

def lint(*argv):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--flow", *argv,
         "src/repro", "benchmarks"],
        capture_output=True, text=True,
    )
    sys.stderr.write(proc.stderr)
    return proc, time.perf_counter() - start

with tempfile.TemporaryDirectory() as tmp:
    cache = os.path.join(tmp, "cache.json")
    serial, _ = lint("--no-flow-cache", "--format", "json")
    parallel, cold = lint(
        "--flow-cache", cache, "--flow-workers", "2", "--format", "json"
    )
    cached, warm = lint("--flow-cache", cache)
sys.stdout.write(cached.stdout)
print(f"cold --flow-workers 2 run: {cold:.2f}s (budget {cold_budget:.0f}s)")
print(f"cached --flow run: {warm:.2f}s (budget {cached_budget:.0f}s)")
failed = False
for name, proc in (("serial", serial), ("parallel", parallel), ("cached", cached)):
    if proc.returncode != 0:
        print(f"check.sh: {name} pushlint run exited {proc.returncode}")
        failed = True
if serial.stdout != parallel.stdout:
    print("check.sh: --flow-workers 2 changed the --flow output bytes")
    failed = True
if cold > cold_budget:
    print(f"check.sh: cold --flow run blew the {cold_budget:.0f}s budget")
    failed = True
if warm > cached_budget:
    print(f"check.sh: cached --flow run blew the {cached_budget:.0f}s budget")
    failed = True
sys.exit(1 if failed else 0)
PYEOF

step "mypy (strict: repro.util, repro.analysis)"
if python -c "import mypy" >/dev/null 2>&1; then
    python -m mypy src/repro/util src/repro/analysis || failures=$((failures + 1))
else
    echo "mypy not installed; skipping (config lives in pyproject.toml)"
fi

step "tier-1 pytest (DeprecationWarning is an error)"
python -m pytest -x -q -W error::DeprecationWarning "$@" || failures=$((failures + 1))

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
step "DetSan (crawl_workers=2 byte-identity + miner stage sweep under permuted order)"
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

miner = PushAdMiner.for_dataset(plain)
baseline = _checksum(miner.run(plain.valid_records))
with DetSan(seed=seed + 1, verify_tiles=True) as san:
    shaken = _checksum(miner.run(plain.valid_records))
assert not san.report.divergences, san.report.divergences
assert baseline == shaken, "miner output changed under DetSan"
print(
    f"DetSan miner: stage sweep identical "
    f"({san.report.fs_shuffled} enumeration(s) shuffled, "
    f"{san.report.tiles_checksummed} tile(s) checksummed)"
)
PYEOF

step "bench smoke (scripts/bench.sh --smoke)"
bench_out="$(mktemp /tmp/bench_smoke.XXXXXX.json)"
scripts/bench.sh --smoke --output "$bench_out" || failures=$((failures + 1))
rm -f "$bench_out"

step "bench compare (scripts/bench.sh --compare BENCH_pipeline.json)"
if [ -f BENCH_pipeline.json ]; then
    scripts/bench.sh --compare BENCH_pipeline.json || failures=$((failures + 1))
else
    echo "no committed BENCH_pipeline.json; skipping"
fi

# Scale sweep: re-run the blocked sparse pipeline at the committed
# baseline's scales and fail on counter drift, dense-fraction ceiling
# breaches, or growth-exponent drift (superlinear growth creeping back).
step "scale sweep compare (python -m repro.bench --scale-sweep --compare BENCH_scale.json)"
if [ -f BENCH_scale.json ]; then
    python -m repro.bench --scale-sweep --compare BENCH_scale.json \
        || failures=$((failures + 1))
else
    echo "no committed BENCH_scale.json; skipping"
fi

# Serve stack: build a snapshot at reduced scale, drive the load generator
# at 1/2/4 threads and demand one response checksum across all counts
# (cache on, cold per count). The committed BENCH_serve.json then gates
# checksum + QPS drift exactly like the pipeline baseline above.
step "serve smoke (python -m repro.bench --serve --smoke)"
serve_out="$(mktemp /tmp/bench_serve_smoke.XXXXXX.json)"
python -m repro.bench --serve --smoke --output "$serve_out" \
    || failures=$((failures + 1))
rm -f "$serve_out"

step "serve compare (python -m repro.bench --serve --compare BENCH_serve.json)"
if [ -f BENCH_serve.json ]; then
    python -m repro.bench --serve --compare BENCH_serve.json \
        || failures=$((failures + 1))
else
    echo "no committed BENCH_serve.json; skipping"
fi

# Incremental stack: absorb a held-out batch against a base mine and
# demand the delta stays a small fraction of a full re-mine. The smoke
# run proves the harness; the committed BENCH_incremental.json gates the
# absorb/full wall ratio (15% ceiling) plus assigned/opened/summary
# determinism exactly like the other baselines.
step "incremental smoke (python -m repro.bench --incremental --smoke)"
incr_out="$(mktemp /tmp/bench_incr_smoke.XXXXXX.json)"
python -m repro.bench --incremental --smoke --output "$incr_out" \
    || failures=$((failures + 1))
rm -f "$incr_out"

step "incremental compare (python -m repro.bench --incremental --compare BENCH_incremental.json)"
if [ -f BENCH_incremental.json ]; then
    python -m repro.bench --incremental --compare BENCH_incremental.json \
        || failures=$((failures + 1))
else
    echo "no committed BENCH_incremental.json; skipping"
fi

echo
if [ "$failures" -ne 0 ]; then
    echo "check.sh: FAILED ($failures step(s) failed)"
    exit 1
fi
echo "check.sh: all checks passed"
