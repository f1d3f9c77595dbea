#!/usr/bin/env bash
# Dead-surface scan: print every out-of-line function defined in src/ that
# no shipped binary links.
#
#   tools/dead_surface.sh [--inline] [build-dir]
#                                (default: build-dead, or build-dead-inline)
#
# Configures a throwaway build tree at -O0 with -ffunction-sections and
# -Wl,--gc-sections, builds every bench, example and tool target plus
# perf/'s perf_driver (in <build-dir>/perf), and compares symbol tables:
# a global text symbol (nm type T) of a src/ object file that appears in
# none of those binaries is dead surface. The demangled names go to stdout,
# sorted and de-duplicated (a constructor's complete and base variants print
# once); a one-line count goes to stderr. Tests do not count as binaries, so
# an oracle only tests call shows up here. Not a CI step: it costs a full
# extra build (docs/STATIC_ANALYSIS.md has the expected output).
#
# --inline also scans header-only code: the tree is built with
# -fkeep-inline-functions, so every inline function of every included
# header is emitted as a weak (W) symbol, and T and W symbols are compared
# alike. Only stellar:: names are printed. The list is long (getters,
# defaulted members and operators only tests call); read it for whole
# mechanisms that no binary drives.
set -eu

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
inline=0
if [ "${1:-}" = "--inline" ]; then
  inline=1
  shift
fi
if [ "$inline" = 1 ]; then
  cxx_flags="-ffunction-sections -fkeep-inline-functions"
  defined_types='^[TW]$'
  build_dir="${1:-$repo_root/build-dead-inline}"
else
  cxx_flags=-ffunction-sections
  defined_types='^T$'
  build_dir="${1:-$repo_root/build-dead}"
fi
jobs="$(nproc 2> /dev/null || echo 2)"

flags=(-G "Unix Makefiles"
       -DCMAKE_BUILD_TYPE=Debug
       -DCMAKE_CXX_FLAGS_DEBUG=-O0
       "-DCMAKE_CXX_FLAGS=$cxx_flags"
       -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)

# Build chatter (compiler warnings included) goes to a log that is shown
# only when a step fails.
mkdir -p "$build_dir"
log="$build_dir/dead_surface_build.log"
: > "$log"
quiet() {
  "$@" >> "$log" 2>&1 || { tail -n 40 "$log" >&2; exit 1; }
}

quiet cmake -S "$repo_root" -B "$build_dir" "${flags[@]}"
for sub in bench examples tools; do
  quiet cmake --build "$build_dir/$sub" -j"$jobs"
done
quiet cmake -S "$repo_root/perf" -B "$build_dir/perf" "${flags[@]}"
quiet cmake --build "$build_dir/perf" --target perf_driver -j"$jobs"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

find "$build_dir/src" -name '*.o' -print0 |
  xargs -0 nm --defined-only -P |
  awk -v types="$defined_types" '$2 ~ types { print $1 }' |
  sort -u > "$work/defined"

{
  find "$build_dir/bench" "$build_dir/examples" "$build_dir/tools" \
    -maxdepth 1 -type f -executable
  echo "$build_dir/perf/perf_driver"
} | while read -r bin; do
  nm --defined-only -P "$bin" | awk '$2 ~ /^[TtWw]$/ { print $1 }'
done | sort -u > "$work/linked"

comm -23 "$work/defined" "$work/linked" > "$work/dead"
if [ "$inline" = 1 ]; then
  c++filt < "$work/dead" | grep '^stellar::' | sort -u > "$work/names"
  cat "$work/names"
  echo "dead_surface --inline: $(wc -l < "$work/names") stellar:: functions" \
       "in src/ and its headers reach no binary" >&2
  exit 0
fi
c++filt < "$work/dead" | sort -u
echo "dead_surface: $(wc -l < "$work/dead") of $(wc -l < "$work/defined")" \
     "global functions in src/ reach no binary" >&2
