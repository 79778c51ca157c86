#!/usr/bin/env bash
# Doc-drift gate: every flag that README.md / DESIGN.md / EXPERIMENTS.md
# show on an ent* command line must actually be accepted by the binary
# that line names. Catches examples that outlive a flag rename or
# removal, even when another binary still takes a flag of that name.
set -euo pipefail
cd "$(dirname "$0")/.."

valid="$(mktemp -d)"
trap 'rm -rf "$valid"' EXIT
for cmd in entanalyze entgen entreport; do
  {
    # -h exits non-zero by flag-package convention; the usage text is
    # what we are after.
    go run "./cmd/$cmd" -h 2>&1 | sed -n 's/^  -\([a-zA-Z0-9_-]*\).*/\1/p' || true
    # go-test flags that legitimately appear in the docs' benchmark
    # recipes (go test ./cmd/entreport -count=1 …).
    printf '%s\n' bench benchmem benchtime count cpu fuzz fuzztime race run short v
  } | sort -u >"$valid/$cmd"
done
sort -u -o "$valid/any" "$valid"/ent*

fail=0
for doc in README.md DESIGN.md EXPERIMENTS.md; do
  while read -r cmd flag; do
    if ! grep -qx -- "$flag" "$valid/$cmd"; then
      echo "$doc: flag -$flag is not accepted by $cmd" >&2
      fail=1
    fi
  done < <(grep -oE '\bent(analyze|gen|report)[^|#`]*' "$doc" |
    awk '{
           match($1, /^ent(analyze|gen|report)/); cmd = substr($1, 1, RLENGTH)
           for (i = 2; i <= NF; i++) if ($i ~ /^-[a-zA-Z]/) {
             f = substr($i, 2); sub(/[^a-zA-Z0-9_-].*/, "", f); print cmd, f
           }
         }' | sort -u)
done

# The resilience-flag family appears in DESIGN.md's code blocks on
# lines that are not full ent* command lines (policy tables, healthz
# transcripts), so the command-line pass above misses them. Scan every
# fenced block for it explicitly, so a rename of any of the flags cannot
# leave stale prose behind.
while read -r flag; do
  if ! grep -qx -- "$flag" "$valid/any"; then
    echo "DESIGN.md code block: flag -$flag is not accepted by any ent* binary" >&2
    fail=1
  fi
done < <(awk '/^```/ { inblk = !inblk; next } inblk' DESIGN.md |
  grep -oE '(^| )-(inject|on-error|max-conns|idle-evict)\b' |
  sed 's/^ *-//' | sort -u)

if [ "$fail" -ne 0 ]; then
  echo "doc-drift check failed: fix the examples or the flag surface" >&2
fi
exit "$fail"
