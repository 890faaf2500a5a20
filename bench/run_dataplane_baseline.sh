#!/usr/bin/env bash
# Runs the data-plane throughput suite and records the numbers the
# batched-execution acceptance criteria are judged against:
#
#   - BM_Scalar/<model>_<repr>        per-packet process() loop
#   - BM_Batch/<model>_<repr>         process_batch() over 256-key spans
#   - BM_BatchThreads/<...>/{1,2,4,8} multi-queue replay, instance/queue
#   - BM_BatchThreadsShared/<...>     multi-queue replay, one shared
#                                     instance + sharded rule counters
#   - BM_Kernel/<probe>_{scalar,simd} dp::simd probe kernels, ns/key
#
# Models: eswitch / ovs / lagopus; representations: universal / goto;
# workload: gwlb N=20 services, M=8 backends, 4096 pre-parsed keys.
#
# Output: BENCH_dataplane.json at the repo root (google-benchmark JSON
# plus a "speedups" block with the batch-vs-scalar ratio per model and
# representation, the threaded scaling curves for both replay modes, a
# "simd_kernels" block with scalar-vs-SIMD ns/key per probe kernel, and
# an "env" block recording host parallelism and benchmark-library
# provenance so flat thread scaling on a 1-core container is
# distinguishable from a regression).
#
# A google-benchmark library built as DEBUG skews every timing, so a
# full baseline run hard-fails when the library reports a debug build
# (context.library_build_type). Set MATON_BENCH_ALLOW_DEBUG_LIB=1 to
# record a baseline on such a host anyway — the override is written
# into the env block so the JSON carries its own provenance caveat.
#
# --smoke runs every benchmark once with minimal timing for CI; smoke
# runs are never timing-authoritative, so they imply the debug-library
# allowance.
set -euo pipefail

repo_root="$(cd -- "$(dirname -- "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${BUILD_DIR:-${repo_root}/build}"

min_time=0.5
smoke=0
out_file="${repo_root}/BENCH_dataplane.json"
for arg in "$@"; do
  case "${arg}" in
    --smoke) min_time=0.01; smoke=1 ;;
    *) out_file="${arg}" ;;
  esac
done

if [[ ! -x "${build_dir}/bench/bench_dataplane" ]]; then
  cmake -B "${build_dir}" -S "${repo_root}"
  cmake --build "${build_dir}" --target bench_dataplane -j "$(nproc)"
fi

raw_file="$(mktemp)"
metrics_file="$(mktemp --suffix=.json)"
trap 'rm -f "${raw_file}" "${metrics_file}"' EXIT

MATON_METRICS_OUT="${metrics_file}" \
"${build_dir}/bench/bench_dataplane" \
  --benchmark_min_time="${min_time}" \
  --benchmark_format=json \
  --benchmark_out="${raw_file}" \
  --benchmark_out_format=json

MATON_BENCH_SMOKE="${smoke}" \
python3 - "${raw_file}" "${out_file}" "${metrics_file}" <<'EOF'
import json, os, sys
raw = json.load(open(sys.argv[1]))
ctx = raw.get("context", {})

# Timing-authoritative runs refuse a debug benchmark library: its
# per-iteration overhead skews every row. Smoke implies the allowance
# (CI asserts shape, not absolute timings).
lib_build = str(ctx.get("library_build_type", "unknown")).lower()
smoke = os.environ.get("MATON_BENCH_SMOKE") == "1"
allow_debug = smoke or os.environ.get("MATON_BENCH_ALLOW_DEBUG_LIB") == "1"
if lib_build not in ("release", "unknown") and not allow_debug:
    sys.exit(
        f"error: google-benchmark library reports build type "
        f"'{lib_build}'; timings from a debug library are not "
        f"baseline-grade. Rebuild the library as Release, or set "
        f"MATON_BENCH_ALLOW_DEBUG_LIB=1 to record anyway (the override "
        f"is stamped into the env block).")

pps = {b["name"]: b.get("items_per_second")
       for b in raw["benchmarks"] if "items_per_second" in b}

speedups = {"batch_vs_scalar": {}, "threaded_scaling": {},
            "threaded_scaling_shared": {}}
for name, rate in sorted(pps.items()):
    if name.startswith("BM_Batch/"):
        case = name.split("/", 1)[1]
        scalar = pps.get("BM_Scalar/" + case)
        if scalar:
            speedups["batch_vs_scalar"][case] = round(rate / scalar, 2)

for prefix, block in (("BM_BatchThreads", "threaded_scaling"),
                      ("BM_BatchThreadsShared",
                       "threaded_scaling_shared")):
    for name, rate in sorted(pps.items()):
        if not name.startswith(prefix + "/"):
            continue
        # <prefix>/<case>/<queues>/real_time
        parts = name.split("/")
        case, queues = parts[1], parts[2]
        base = pps.get(f"{prefix}/{case}/1/real_time")
        curve = speedups[block].setdefault(case, {})
        curve[f"queues_{queues}"] = {
            "mpps": round(rate / 1e6, 2),
            "vs_1_queue": round(rate / base, 2) if base else None,
        }

# dp::simd probe kernels: ns/key per dispatch level and the speedup the
# acceptance gate reads (>= 1.5x on tss and masked_group, Release).
simd_kernels = {}
for name, rate in sorted(pps.items()):
    if not name.startswith("BM_Kernel/") or not rate:
        continue
    case = name.split("/", 1)[1]          # <probe>_{scalar,simd}
    probe, _, level = case.rpartition("_")
    entry = simd_kernels.setdefault(probe, {})
    entry[f"{level}_ns_per_key"] = round(1e9 / rate, 3)
for probe, entry in simd_kernels.items():
    scalar = entry.get("scalar_ns_per_key")
    simd = entry.get("simd_ns_per_key")
    entry["speedup"] = round(scalar / simd, 2) if scalar and simd else None

raw["env"] = {
    "build_type": ctx.get("build_type", "unknown"),
    "host_cores": int(ctx.get("host_cores", ctx.get("num_cpus", 0))),
    "library_build_type": lib_build,
    "debug_lib_allowed": bool(allow_debug and lib_build
                              not in ("release", "unknown")),
    "smoke": smoke,
}
raw["speedups"] = speedups
raw["simd_kernels"] = simd_kernels
if raw["context"]["num_cpus"] <= 1:
    raw["speedups"]["thread_scaling_note"] = (
        "host exposes a single CPU: the multi-queue replay curve is "
        "expected to be flat here; queues scale with physical cores")

# Fold the run's telemetry scrape (per-template stage hit/miss counters,
# lookup histograms, replay totals) into the baseline record. Empty when
# the bench was built with MATON_OBS_OFF.
try:
    raw["metrics"] = json.load(open(sys.argv[3]))
except (OSError, ValueError):
    raw["metrics"] = None
json.dump(raw, open(sys.argv[2], "w"), indent=1)
EOF

echo "wrote ${out_file} (host cores: $(nproc))"
