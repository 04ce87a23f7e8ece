#!/usr/bin/env bash
# Repo check gate: static analysis + the tier-1 test suite.
#
# Usage: scripts/check.sh
# Run from the repository root.
#
# Gates, in order:
#   1. reprolint  — the repo's own AST linter, domain rules RL001-RL006
#                   plus the two-pass concurrency rules RL007-RL010
#                   (stdlib-only, always runs; JSON report kept as a CI
#                   artifact in .check/REPROLINT_report.json)
#   2. ruff       — general lint (skipped when not installed)
#   3. mypy       — strict typing of the signal core (skipped when not
#                   installed; the allowlist lives in pyproject.toml)
#   4. smoke      — `repro stream` record -> replay round trip
#   5. sanitizer  — REPRO_DEBUG=1 stream run; the lock-sanitizer report
#                   (.check/SANITIZER_report.json) must show no
#                   inversions and no unguarded accesses
#   6. chaos      — every fault scenario (reader-loss, dead-antenna,
#                   phase-glitch, epc-misread, overload, late-burst)
#                   must still emit fixes
#   7. ops        — live /metrics scrape must pass the exposition validator
#   8. bench      — `python -m bench run --smoke` runs every workload of
#                   the repo benchmark and writes its record to
#                   .check/bench/; fails when a repeat or traced phase
#                   disagrees, a fix leaks across deployments, or the
#                   result line counts any failed output
#   9. obs overhead — scripts/obs_overhead.py --smoke writes
#                   .check/BENCH_obs.json
#  10. soak       — scripts/soak.py --smoke (bounded RSS/cardinality/queues)
#                   writes .check/SOAK_report.json
#  11. serve      — scripts/loadgen.py --smoke drives a shard fleet over
#                   real TCP (kill/restore drill, zero-leakage sweep)
#                   and writes .check/BENCH_serve.json
#  12. chaos fleet — scripts/chaos_fleet.py --smoke injects all six
#                   fault families (partition, slow-loris, corruption,
#                   checkpoint rot, hang, overload) and writes
#                   .check/BENCH_chaos.json
#  13. pytest     — the tier-1 suite
#
# Reports and smoke records land in the gitignored .check/ directory,
# so a check run never overwrites the committed BENCH_*.json records
# and leaves nothing else in the tree.

set -euo pipefail

cd "$(dirname "$0")/.."
mkdir -p .check

echo "== reprolint (domain rules RL001-RL006, concurrency rules RL007-RL010) =="
python -m tools.reprolint src/ --format json --statistics > .check/REPROLINT_report.json \
    || { echo "reprolint findings (full report in .check/REPROLINT_report.json):"; \
         python -m tools.reprolint src/ --statistics || true; exit 1; }

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff check =="
    ruff check src tests benchmarks examples
else
    echo "== ruff not installed; skipping lint (pip install ruff to enable) =="
fi

if python -c "import mypy" >/dev/null 2>&1; then
    echo "== mypy --strict (signal-core allowlist) =="
    python -m mypy --strict -p repro
else
    echo "== mypy not installed; skipping type check (pip install mypy to enable) =="
fi

echo "== streaming smoke (record -> replay round trip) =="
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
PYTHONPATH=src python -m repro --quiet stream --environment hall --seed 7 \
    --fixes 1 --record "$SMOKE_DIR/smoke.jsonl"
PYTHONPATH=src python -m repro --quiet stream --replay "$SMOKE_DIR/smoke.jsonl"

echo "== lock sanitizer smoke (REPRO_DEBUG=1 stream; no inversions/witnesses) =="
timeout 300 env PYTHONPATH=src REPRO_DEBUG=1 python - <<'SANITIZER_SMOKE'
from repro.analysis import sanitizer
from repro.cli import main

code = main([
    "--quiet", "stream", "--environment", "hall", "--seed", "7",
    "--fixes", "2",
])
assert code == 0, f"sanitized stream exited {code}"
document = sanitizer.write_report(".check/SANITIZER_report.json")
assert document["enabled"], "REPRO_DEBUG gate did not engage"
assert document["locks"], "sanitizer observed no lock activity"
assert document["inversions"] == [], document["inversions"]
assert document["witnesses"] == [], document["witnesses"]
print(f"sanitizer smoke ok: {len(document['locks'])} locks watched, "
      "no inversions, no unguarded accesses")
SANITIZER_SMOKE

echo "== chaos smoke (no fault scenario may stop the fix stream) =="
# Hard timeout: a hung degraded pipeline is exactly the regression this
# step exists to catch.  late-burst and overload reorder and repeat
# reads, so they also exercise the assembler's window-close rules.
for scenario in reader-loss dead-antenna phase-glitch epc-misread overload late-burst; do
    timeout 300 env PYTHONPATH=src python -m repro --quiet stream \
        --environment hall --seed 7 --fixes 3 --chaos "$scenario" \
        | grep -q "^fix " \
        || { echo "chaos smoke ($scenario) produced no fixes"; exit 1; }
done

echo "== ops smoke (telemetry run, live /metrics must validate) =="
# A stream with every telemetry flag on: the fix log must be readable
# and the live scrape must pass the in-repo Prometheus validator.
timeout 300 env PYTHONPATH=src SMOKE_DIR="$SMOKE_DIR" python - <<'OPS_SMOKE'
import os
import urllib.request
from repro.cli import main
from repro.obs.export import validate_exposition
from repro.stream import read_fix_log

fix_log = os.path.join(os.environ["SMOKE_DIR"], "fixes.jsonl")
code = main([
    "--quiet", "stream", "--environment", "table", "--seed", "7",
    "--fixes", "2", "--fix-log", fix_log,
])
assert code == 0, f"telemetry stream exited {code}"
fixes = list(read_fix_log(fix_log))
assert fixes and all(f.provenance is not None for f in fixes), \
    "fix log missing provenance"

from repro import obs
from repro.obs import OpsServer
obs.configure()
obs.count("stream.fixes")
with OpsServer(port=0) as server:
    with urllib.request.urlopen(f"{server.url}/metrics", timeout=10) as r:
        families = validate_exposition(r.read().decode("utf-8"))
obs.shutdown()
assert "repro_stream_fixes_total" in families
print(f"ops smoke ok: {len(fixes)} logged fixes, "
      f"{len(families)} exposed families")
OPS_SMOKE

echo "== bench smoke (repo benchmark, every workload; record in .check/bench/) =="
# Smoke inputs check the harness and the fix path end to end, not speed:
# the step fails when any output is wrong.  The benchmark's own exit
# status covers "correct"; the result line's "failed" (missing,
# different or late outputs, e.g. a served fix that differs from its
# in-process reference) must be 0 too.  Speed is judged by full runs
# and `python -m bench compare` (bench/README.md).
mkdir -p .check/bench
timeout 600 python -m bench run --smoke --out .check/bench | tee .check/bench/smoke.out
python - <<'BENCH_FAILED'
import json

result = json.loads(open(".check/bench/smoke.out").read().strip().splitlines()[-1])
assert result["correct"] is True, result
assert result["failed"] == 0, (
    f"bench smoke: {result['failed']} of {result['attempted']} outputs failed"
)
print(f"bench smoke ok: {result['attempted']} outputs, 0 failed")
BENCH_FAILED

echo "== obs overhead smoke (writes .check/BENCH_obs.json) =="
PYTHONPATH=src python scripts/obs_overhead.py --smoke --output .check/BENCH_obs.json

echo "== chaos soak smoke (bounded RSS, flat cardinality, drained queues) =="
timeout 600 env PYTHONPATH=src python scripts/soak.py --smoke \
    --report .check/SOAK_report.json

echo "== serve smoke (TCP fleet: fixes emitted, drill passes, clean shutdown) =="
# The load generator self-hosts a supervisor + ingest server on
# ephemeral ports, publishes over real TCP, runs the kill/restore
# drill and the cross-shard leakage sweep, and exits non-zero unless
# every gate in the serve record passed.
timeout 600 env PYTHONPATH=src python scripts/loadgen.py --smoke \
    --output .check/BENCH_serve.json

echo "== chaos fleet smoke (six fault families, recovery + zero-loss gates) =="
# Every family must recover within its deadline with zero read loss,
# chained lineage and zero cross-deployment leakage; the script exits
# non-zero if any gate fails.
timeout 600 env PYTHONPATH=src python scripts/chaos_fleet.py --smoke \
    --output .check/BENCH_chaos.json

echo "== tier-1 tests =="
PYTHONPATH=src python -m pytest -x -q
