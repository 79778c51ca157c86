#!/usr/bin/env bash
# Unlinked-function gate: every function declared in a non-test file of
# a non-main package must be linked into at least one of the module's
# binaries (cmd/*, examples/*, benchmark), or be named in
# scripts/unlinked.allow with the test, fuzz target or seam it serves.
#
# Each main package is built with inlining off (-gcflags=all=-l), so a
# called function keeps its own symbol, and `go tool nm` lists what the
# linker kept. Generic instantiations are compared with their shape
# arguments stripped (fleet.Cut[go.shape.…] is fleet.Cut), and a method
# is one name whatever its receiver form ((*T).M, T.M).
#
# Fails on an unlinked function the allowlist does not name, and on an
# allowlist line that is linked, no longer declared, or says nothing
# about what it serves. Also prints, without failing, the functions only
# benchmark links. Usage: ./scripts/unlinked.sh
set -euo pipefail
cd "$(dirname "$0")/.."

allow=scripts/unlinked.allow
mod="$(go list -m)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

mkdir "$work/bin"
# shellcheck disable=SC2046 # one word per main package
go build -gcflags=all=-l -o "$work/bin/" $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...)

# linked.<binary>: the module's text symbols, one per line, as
# "pkg.Func" or "pkg.Type.Method" with the module prefix dropped.
for bin in "$work"/bin/*; do
  go tool nm "$bin" |
    awk -v mod="$mod" '
      {
        # "addr type name"; a name may hold spaces (go.shape.struct { … }).
        if (!match($0, /^ *[0-9a-f]* +[A-Za-z] /)) next
        t = substr($0, RLENGTH - 1, 1); name = substr($0, RLENGTH + 1)
        if (t != "T" && t != "t") next
        if (index(name, mod "/") == 1) name = substr(name, length(mod) + 2)
        else if (index(name, mod ".") != 1) next
        out = ""; depth = 0
        for (i = 1; i <= length(name); i++) {
          c = substr(name, i, 1)
          if (c == "[") depth++
          else if (c == "]") depth--
          else if (depth == 0) out = out c
        }
        gsub(/\(\*|\)/, "", out)
        print out
      }' | sort -u >"$work/linked.$(basename "$bin")"
done
sort -u "$work"/linked.* >"$work/linked"
find "$work" -maxdepth 1 -name 'linked.*' ! -name linked.benchmark -exec sort -u {} + >"$work/prod"

# declared: "key<TAB>display<TAB>file:line" for every func in a non-test
# file of a non-main package; key is the linked.* form.
go list -f '{{if ne .Name "main"}}{{range .GoFiles}}{{$.ImportPath}} {{$.Dir}}/{{.}}{{"\n"}}{{end}}{{end}}' ./... |
  while read -r pkg file; do
    rel="${pkg#"$mod"/}"
    awk -v pkg="$rel" -v file="${file#"$PWD"/}" '
      function strip(s,   out, c, i, depth) {
        out = ""; depth = 0
        for (i = 1; i <= length(s); i++) {
          c = substr(s, i, 1)
          if (c == "[") depth++
          else if (c == "]") depth--
          else if (depth == 0) out = out c
        }
        return out
      }
      /^func / {
        s = substr($0, 6); recv = ""
        if (s ~ /^\(/) {
          # (r *T[K]) or (T): the receiver type is its last word.
          close_ = index(s, ")"); r = substr(s, 2, close_ - 2)
          n = split(strip(r), w, " "); recv = w[n]
          s = substr(s, close_ + 1); sub(/^ +/, "", s)
        }
        match(s, /^[A-Za-z_0-9]+/); name = substr(s, 1, RLENGTH)
        if (recv == "" && (name == "init" || name == "_")) next
        if (recv == "") { key = name; disp = name }
        else {
          t = recv; sub(/^\*/, "", t)
          key = t "." name
          disp = (recv ~ /^\*/ ? "(" recv ")" : recv) "." name
        }
        printf "%s.%s\t%s.%s\t%s:%d\n", pkg, key, pkg, disp, file, FNR
      }' "$file"
  done | sort -t "$(printf '\t')" -k1,1 >"$work/declared"

# The allowlist: "symbol  what it serves"; blank lines and # comments skipped.
awk '!/^[[:space:]]*(#|$)/ { sym = $1; $1 = ""; sub(/^ +/, ""); print sym "\t" $0 }' "$allow" |
  sort -t "$(printf '\t')" -k1,1 >"$work/allow"

# unlinked: the declarations no binary links.
awk -F'\t' 'NR == FNR { linked[$1] = 1; next } !($1 in linked)' "$work/linked" "$work/declared" >"$work/unlinked"

fail=0
awk -F'\t' -v allow="$allow" '
  FILENAME == ARGV[1] { declared[$2] = 1; next }
  FILENAME == ARGV[2] { unlinked[$2] = $3; next }
  {
    allowed[$1] = 1
    if ($2 == "") { print allow ": " $1 " does not say what it serves"; bad = 1 }
    if (!($1 in declared)) { print allow ": " $1 " is no longer declared"; bad = 1 }
    else if (!($1 in unlinked)) { print allow ": " $1 " is now linked; drop its line"; bad = 1 }
  }
  END {
    for (d in unlinked) if (!(d in allowed)) {
      print unlinked[d] ": " d " is linked by no binary and not in " allow; bad = 1
    }
    exit bad
  }' "$work/declared" "$work/unlinked" "$work/allow" | sort >&2 || fail=1

echo "linked only by benchmark (informational):"
awk -F'\t' 'NR == FNR { prod[$1] = 1; next } !($1 in prod) { print "  " $3 ": " $2 }' \
  "$work/prod" <(awk -F'\t' 'NR == FNR { linked[$1] = 1; next } $1 in linked' "$work/linked" "$work/declared")
echo "$(wc -l <"$work/declared") functions declared, $(wc -l <"$work/unlinked") linked by no binary, $(wc -l <"$work/allow") allowed"

if [ "$fail" -ne 0 ]; then
  echo "unlinked-function check failed: delete the function, or name what it serves in $allow" >&2
fi
exit "$fail"
