#!/usr/bin/env bash
# Builds the benchmark and the node binary, runs one workload (or all),
# verifies outputs and prints every metric as `name value unit` plus one JSON
# object per workload (last line).
#
#   benchmark/run.sh <workload>|all [--seed S] [--seconds N] [--trace]
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh --selfcheck      # two interleaved sets of the same binary
#   benchmark/run.sh --spread         # ten seeds per workload, quartile spread
#
# Run it from anywhere; it works from the repository root it lives in.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# Both builds are offline and locked.  With CARGO_TARGET_DIR set (the driver
# sets it) both land there; otherwise each manifest uses its own `target/`,
# both of which are ignored by git.  Build chatter goes to stderr: stdout is
# the benchmark's.
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml >&2
cargo build --release --offline --locked -p hybrid-node >&2
bench_bin="${CARGO_TARGET_DIR:-benchmark/target}/release/hybrid-benchmark"
node_bin="${CARGO_TARGET_DIR:-target}/release/hybrid-node"

mode=run
args=()
while [ $# -gt 0 ]; do
    case "$1" in
        --selfcheck) mode=selfcheck ;;
        --spread) mode=spread ;;
        --trace)
            # Bare `--trace` means `--trace 1`.
            if [ "${2:-}" = 0 ] || [ "${2:-}" = 1 ]; then
                args+=(--trace "$2")
                shift
            else
                args+=(--trace 1)
            fi
            ;;
        --*)
            args+=("$1" "${2:?$1 needs a value}")
            shift
            ;;
        *) args+=(--workload "$1") ;;
    esac
    shift
done

if [ "$mode" = run ]; then
    exec "$bench_bin" --node-bin "$node_bin" --out benchmark/out ${args[@]+"${args[@]}"}
fi
exec python3 benchmark/noise.py "$mode" "$bench_bin" "$node_bin" ${args[@]+"${args[@]}"}
