#!/usr/bin/env bash
# CI-drift gate: every Test…/Fuzz… name that a -run or -fuzz pattern in
# .github/workflows/ci.yml spells out must be a function some _test.go
# declares. A renamed or deleted test otherwise drops silently out of the
# step that names it (a -run pattern that matches nothing passes).
set -euo pipefail
cd "$(dirname "$0")/.."

ci=.github/workflows/ci.yml
declared="$(mktemp)"
trap 'rm -f "$declared"' EXIT
git ls-files '*_test.go' | xargs sed -n 's/^func \(\(Test\|Fuzz\)[A-Za-z0-9_]*\)(.*/\1/p' | sort -u >"$declared"

# The argument of each -run/-fuzz flag, quoted or bare, split into the
# names its alternation lists; a subtest path keeps its top-level name.
names="$(grep -oE -- "-(run|fuzz) ('[^']*'|\"[^\"]*\"|[^ ]+)" "$ci" |
  sed -E "s/^-(run|fuzz) //; s/^['\"]//; s/['\"]$//" |
  tr '|' '\n' | sed -E 's/[$^()]//g; s|/.*||' |
  grep -E '^(Test|Fuzz)' | sort -u)"

fail=0
for name in $names; do
  if ! grep -qx -- "$name" "$declared"; then
    echo "$ci: -run/-fuzz names $name, which no _test.go declares" >&2
    fail=1
  fi
done
if [ "$fail" -ne 0 ]; then
  echo "CI-drift check failed: rename the pattern with the test, or drop it" >&2
else
  echo "$(wc -w <<<"$names") test names in $ci resolve"
fi
exit "$fail"
