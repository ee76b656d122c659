#!/usr/bin/env bash
# Net non-test lines per Rust file under crates/ since a revision.
#
#   scripts/lines.sh <rev>
#
# For every .rs file under crates/ that differs between <rev> and the
# working tree (added, deleted or modified), prints the lines before the
# file's first `#[cfg(test)]` at <rev> and in the working tree, and their
# difference; the last line is the total. A file that does not exist on
# one side counts 0 there; files under a `tests/` directory are skipped.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
[ $# -eq 1 ] || { echo "usage: scripts/lines.sh <rev>" >&2; exit 2; }
rev="$1"
cd "$root"
git rev-parse --verify --quiet "$rev^{commit}" > /dev/null || {
  echo "scripts/lines.sh: unknown revision $rev" >&2
  exit 2
}

# Lines before the first `#[cfg(test)]` of the text on stdin.
non_test() { awk '/^[[:space:]]*#\[cfg\(test\)\]/{exit} {n++} END{print n+0}'; }

files=$( { git diff --name-only "$rev" -- 'crates/*.rs'
           git ls-files --others --exclude-standard -- 'crates/*.rs'; } | sort -u)
total_before=0
total_after=0
printf '%-52s %7s %7s %7s\n' file before after net
for f in $files; do
  case "$f" in */tests/*) continue ;; esac
  before=0
  git cat-file -e "$rev:$f" 2> /dev/null && before=$(git show "$rev:$f" | non_test)
  after=0
  [ -f "$f" ] && after=$(non_test < "$f")
  printf '%-52s %7d %7d %+7d\n' "$f" "$before" "$after" $((after - before))
  total_before=$((total_before + before))
  total_after=$((total_after + after))
done
printf '%-52s %7d %7d %+7d\n' total "$total_before" "$total_after" $((total_after - total_before))
