#!/usr/bin/env bash
# Non-test lines of the crates' sources (the .rs files under crates/*/src):
# per crate, or the net change per file since a revision.
#
#   scripts/lines.sh          # per crate, then the total
#   scripts/lines.sh <rev>    # per changed file since <rev>, then the net
#
# A file's non-test lines are those before its first `#[cfg(test)]`. The
# total of the first mode is the number the line target in ROADMAP.md is
# stated in.
#
# With a revision, for every source file that differs between <rev> and
# the working tree (added, deleted or modified), prints its lines at <rev>
# and in the working tree, and their difference; the last line is the
# total. A file that does not exist on one side counts 0 there.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
[ $# -le 1 ] || { echo "usage: scripts/lines.sh [<rev>]" >&2; exit 2; }
cd "$root"

# Lines before the first `#[cfg(test)]` of the text on stdin. Reads to the
# end: exiting early would kill a `git show` still writing into the pipe.
non_test() { awk '/^[[:space:]]*#\[cfg\(test\)\]/{done=1} !done{n++} END{print n+0}'; }

if [ $# -eq 0 ]; then
  total=0
  printf '%-24s %7s\n' crate lines
  for dir in crates/*/; do
    n=0
    for f in $( { git ls-files -- "${dir}src/*.rs"
                  git ls-files --others --exclude-standard -- "${dir}src/*.rs"; } | sort -u); do
      [ -f "$f" ] && n=$((n + $(non_test < "$f")))
    done
    printf '%-24s %7d\n' "$(basename "$dir")" "$n"
    total=$((total + n))
  done
  printf '%-24s %7d\n' total "$total"
  exit 0
fi

rev="$1"
git rev-parse --verify --quiet "$rev^{commit}" > /dev/null || {
  echo "scripts/lines.sh: unknown revision $rev" >&2
  exit 2
}

files=$( { git diff --name-only "$rev" -- 'crates/*/src/*.rs'
           git ls-files --others --exclude-standard -- 'crates/*/src/*.rs'; } | sort -u)
total_before=0
total_after=0
printf '%-52s %7s %7s %7s\n' file before after net
for f in $files; do
  before=0
  git cat-file -e "$rev:$f" 2> /dev/null && before=$(git show "$rev:$f" | non_test)
  after=0
  [ -f "$f" ] && after=$(non_test < "$f")
  printf '%-52s %7d %7d %+7d\n' "$f" "$before" "$after" $((after - before))
  total_before=$((total_before + before))
  total_after=$((total_after + after))
done
printf '%-52s %7d %7d %+7d\n' total "$total_before" "$total_after" $((total_after - total_before))
