#!/usr/bin/env bash
# Builds the benchmark offline and runs it from the repository root.
#
#   bench/run.sh                                   every workload, plain and traced pass
#   bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bench/run.sh compare A.json B.json
#
# See bench/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# An allocator whose footprint does not hang on thread timing, so that
# peak_rss_mb reads the program's live set. One arena: with glibc's default
# of eight per core VmHWM of identical runs reads anything from 44 to
# 81 MiB (the run pins itself to one CPU, src/process.rs, where a single
# arena costs no time). And the mmap threshold fixed at its initial value:
# left to adapt, it grows with the first large buffer freed, later buffers
# of that size stay in the heap, and about one run in fifteen reads 4 MiB
# higher than the rest.
export MALLOC_ARENA_MAX=1 MALLOC_MMAP_THRESHOLD_=131072
target="${CARGO_TARGET_DIR:-bench/target}"
bin="$target/release/bench"
# Cargo is asked only when a source is newer than the binary. Asked every
# time, it rebuilds everything (30 s) on every invocation outside a git
# checkout: crates/wtpg-obs/build.rs watches ../../.git/HEAD, and a watched
# file that does not exist always counts as changed.
if [ ! -x "$bin" ] || [ -n "$(find bench/Cargo.toml bench/Cargo.lock bench/src crates vendor \
    -type f -newer "$bin" -print -quit 2>/dev/null)" ]; then
  build_started=$(date +%s%N)
  cargo build --release --offline --quiet --manifest-path bench/Cargo.toml --target-dir "$target" >&2
  echo "build: $(( ($(date +%s%N) - build_started) / 1000000 )) ms (not part of setup_s)" >&2
fi
exec "$bin" "$@"
