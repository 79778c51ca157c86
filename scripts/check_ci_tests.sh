#!/usr/bin/env bash
# CI-drift gate: every Test…/Fuzz… name that a -run or -fuzz pattern in
# .github/workflows/ci.yml spells out must be a function a _test.go
# declares in a package the same `go test` command runs. A renamed or
# deleted test otherwise drops silently out of the step that names it: a
# -run pattern that matches nothing passes, and so does a -fuzz pattern
# over a package without that target, whatever other packages declare.
set -euo pipefail
cd "$(dirname "$0")/.."

ci=.github/workflows/ci.yml

# declared prints the Test…/Fuzz… functions the _test.go files of the
# given package arguments declare: ./... is the tree, ./dir/... a
# subtree, . or ./dir one package.
declared() {
  for pkg in "$@"; do
    dir=${pkg#./}
    dir=${dir%/}
    case "$dir" in
      ...) git ls-files '*_test.go' ;;
      */...) git ls-files "${dir%/...}/" | grep '_test\.go$' || true ;;
      .) git ls-files | grep -E '^[^/]*_test\.go$' || true ;;
      *) git ls-files "$dir/" | grep -E "^$dir/[^/]*_test\.go$" || true ;;
    esac
  done | xargs -r sed -n 's/^func \(\(Test\|Fuzz\)[A-Za-z0-9_]*\)(.*/\1/p' | sort -u
}

fail=0
total=0
while IFS= read -r cmd; do
  # The argument of each -run/-fuzz flag, quoted or bare, split into the
  # names its alternation lists; a subtest path keeps its top-level name.
  names="$(grep -oE -- "-(run|fuzz) ('[^']*'|\"[^\"]*\"|[^ ]+)" <<<"$cmd" |
    sed -E "s/^-(run|fuzz) //; s/^['\"]//; s/['\"]$//" |
    tr '|' '\n' | sed -E 's/[$^()]//g; s|/.*||' |
    grep -E '^(Test|Fuzz)' | sort -u || true)"
  [ -n "$names" ] || continue
  # The packages are its ./… arguments (a -bench pattern is not one).
  read -ra pkgs <<<"$(sed -E 's/-bench [^ ]+//' <<<"$cmd" | grep -oE '(^| )\.(/[^ ]*)?' | tr -d ' ' | tr '\n' ' ')"
  if [ "${#pkgs[@]}" -eq 0 ]; then
    echo "$ci: no package in: $cmd" >&2
    fail=1
    continue
  fi
  have="$(declared "${pkgs[@]}")"
  for name in $names; do
    total=$((total + 1))
    if ! grep -qx -- "$name" <<<"$have"; then
      echo "$ci: -run/-fuzz names $name, which no _test.go in ${pkgs[*]} declares" >&2
      fail=1
    fi
  done
done < <(grep -E 'go test .*-(run|fuzz) ' "$ci")
if [ "$fail" -ne 0 ]; then
  echo "CI-drift check failed: rename the pattern with the test, or drop it" >&2
else
  echo "$total test names in $ci resolve in the packages their commands run"
fi
exit "$fail"
