#!/usr/bin/env bash
# Diffs the stdout of twelve bench mains against the committed goldens and
# checks the adversary sweep's pinned digest.
#
#   tests/golden/check.sh [BUILD_DIR]    (default: build)
#
# Each golden is `<bench> --quick --threads 1` without the `defaults:` echo
# line. A golden changes only together with a CHANGES.md line that says why.
set -euo pipefail

golden_dir="$(cd "$(dirname "$0")" && pwd)"
bench_dir="$(cd "${1:-build}/bench" && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

status=0
for b in fig3_effectiveness fig4_setup_crypto fig5_setup_messages \
         fig6_ktable fig7_cache_size fig8_maintenance table3_parameters \
         ablation_actors ablation_alpha ablation_baselines ablation_overlay \
         ablation_failures; do
  "$bench_dir/$b" --quick --threads 1 | grep -v '^defaults:' > "$work/$b.txt"
  if ! diff -u "$golden_dir/$b.txt" "$work/$b.txt"; then
    echo "golden mismatch: $b" >&2
    status=1
  fi
done

# ablation_adversary writes BENCH_adversary.json into its working directory,
# so it runs in the scratch directory to leave the committed file alone.
(cd "$work" && "$bench_dir/ablation_adversary" --quick) > "$work/adversary.txt"
if [ "$(grep -c 'digest=2ba266c2b7df8fa6$' "$work/adversary.txt")" -ne 3 ]; then
  echo "ablation_adversary: digest 2ba266c2b7df8fa6 not printed at threads 1, 4 and 8" >&2
  status=1
fi

exit "$status"
