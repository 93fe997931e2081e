#!/usr/bin/env bash
# Bench-trajectory collector for the batched irradiance kernels: runs
# bench_micro_kernels' irradiance/anchor-series benchmarks in JSON mode
# and appends one record per benchmark (tagged with the current commit)
# to BENCH_kernels.json at the repo root, so speedup-vs-PR can be
# tracked across the project's history (ROADMAP trajectory item).
#
# Usage: scripts/collect_bench_kernels.sh [build-dir]   (default: build)

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-build}"
bench="$repo_root/$build_dir/bench/bench_micro_kernels"
out="$repo_root/BENCH_kernels.json"

if [[ ! -x "$bench" ]]; then
    echo "error: $bench not built (google-benchmark required)" >&2
    exit 1
fi

commit="$(git -C "$repo_root" rev-parse --short HEAD 2>/dev/null || echo unknown)"

raw="$("$bench" --benchmark_filter='Irradiance|AnchorSeries|Daylight|SharedSky|Footprint|HorizonMap' \
                --benchmark_format=json --benchmark_min_time=0.2 \
                2>/dev/null)"

RAW_JSON="$raw" COMMIT="$commit" OUT_PATH="$out" python3 - <<'PY'
import json
import os

raw = json.loads(os.environ["RAW_JSON"])
commit = os.environ["COMMIT"]
out_path = os.environ["OUT_PATH"]

records = []
if os.path.exists(out_path):
    with open(out_path) as f:
        records = json.load(f)

by_name = {}
for b in raw.get("benchmarks", []):
    rec = {
        "commit": commit,
        "name": b["name"],
        "real_time_ns": b["real_time"],
        "items_per_second": b.get("items_per_second"),
    }
    by_name[b["name"]] = rec
    records.append(rec)

with open(out_path, "w") as f:
    json.dump(records, f, indent=1)
    f.write("\n")

def speedup(base, kernel):
    a, b = by_name.get(base), by_name.get(kernel)
    if a and b and b["real_time_ns"] > 0:
        return a["real_time_ns"] / b["real_time_ns"]
    return None

print(f"appended {len(by_name)} records at {commit} -> {out_path}")
for base, kernel, label in [
    ("BM_IrradianceRowScalarCells", "BM_IrradianceRowKernel/0",
     "row kernel (scalar batch) vs per-cell scalar"),
    ("BM_IrradianceRowScalarCells", "BM_IrradianceRowKernel/1",
     "row kernel (avx2) vs per-cell scalar"),
    ("BM_IrradianceRowScalarCells", "BM_IrradianceRowKernel/2",
     "row kernel (avx512) vs per-cell scalar"),
    ("BM_IrradianceSeriesScalarCells", "BM_IrradianceSeriesKernel/0",
     "series kernel (scalar batch) vs per-cell scalar"),
    ("BM_DaylightSeriesGather/0", "BM_DaylightSeriesPacked/0",
     "daylight series packed-vs-gather (scalar)"),
    ("BM_DaylightSeriesGather/0", "BM_DaylightSeriesPacked/1",
     "daylight series packed (avx2) vs gather (scalar)"),
    ("BM_DaylightSeriesGather/0", "BM_DaylightSeriesPacked/2",
     "daylight series packed (avx512) vs gather (scalar)"),
    ("BM_SharedSkyPrepareReference", "BM_SharedSkyPrepare/1",
     "shared-sky prepare batched-vs-reference (avx2)"),
    ("BM_SharedSkyPrepareReference", "BM_SharedSkyPrepare/2",
     "shared-sky prepare batched-vs-reference (avx512)"),
    ("BM_FootprintMaskPerCell/10000", "BM_FootprintMaskScanline/10000",
     "footprint mask scanline-vs-per-cell (10^4 vertices)"),
    ("BM_HorizonMapBatched/0", "BM_HorizonMapBatched/1",
     "horizon build (avx2) vs scalar batch"),
    ("BM_HorizonMapBatched/0", "BM_HorizonMapBatched/2",
     "horizon build (avx512) vs scalar batch"),
]:
    s = speedup(base, kernel)
    if s is not None:
        print(f"  {label}: {s:.1f}x")
PY
