#!/bin/sh
# Enforcing lint: no trace-span closure built while tracing is off.
#
# `Sky_trace.Trace.span ~core ~cat name f` records nothing when tracing
# is disabled, but its caller has already built the closure [f] (and
# often the span name) by then: on a per-call path that is host garbage
# on every mediated call, modelling nothing.  Every span application in
# lib/ (comments excluded) must therefore sit behind
# `Trace.is_enabled ()`, on the same line or the line before:
#
#     if Sky_trace.Trace.is_enabled () then
#       Sky_trace.Trace.span ~core ~cat:"ctx" "cr3_write" (fun () -> ...)
#     else ...
#
# The only exceptions are the provably cold sites listed in
# tools/lint_spans.allow as `file:span-name`, each with its reason.  An
# unlisted unguarded site fails, and so does an allowlist entry the
# census no longer finds.
set -u
cd "$(dirname "$0")/.."

allow=tools/lint_spans.allow

# census FILE prints `KEY LINE:TEXT` for every unguarded span application
# in FILE, KEY being `FILE:NAME` with NAME the span's name literal (the
# string after the `~cat:"..."` one, on the span's line or the next), or
# `?` when the name is not a literal.  Comments are blanked first,
# nesting included; string literals are skipped while scanning for
# comment openers.
census() {
  awk -v file="$1" '
    {
      out = ""; i = 1; n = length($0)
      while (i <= n) {
        c = substr($0, i, 1); c2 = substr($0, i, 2)
        if (depth > 0) {
          if (c2 == "(*") { depth++; i += 2; out = out "  " }
          else if (c2 == "*)") { depth--; i += 2; out = out "  " }
          else { i++; out = out " " }
        } else if (instr) {
          if (c == "\\") { out = out c2; i += 2 }
          else { if (c == "\"") instr = 0; out = out c; i++ }
        } else if (c2 == "(*") { depth = 1; i += 2; out = out "  " }
        else { if (c == "\"") instr = 1; out = out c; i++ }
      }
      code[NR] = out
    }
    END {
      for (k = 1; k <= NR; k++) {
        if (code[k] !~ /Trace\.span[^_a-zA-Z0-9]/ && code[k] !~ /Trace\.span$/) continue
        if (code[k] ~ /Trace\.is_enabled *\(\)/) continue
        if (k > 1 && code[k - 1] ~ /Trace\.is_enabled *\(\)/) continue
        rest = code[k] " " code[k + 1]
        name = "?"
        if (match(rest, /~cat:"[^"]*"[^"]*"[^"]*"/)) {
          lit = substr(rest, RSTART, RLENGTH)
          sub(/^~cat:"[^"]*"[^"]*"/, "", lit)
          sub(/"$/, "", lit)
          name = lit
        }
        text = code[k]; sub(/^ +/, "", text)
        print file ":" name " " k ":" text
      }
    }
  ' "$1"
}

echo "== unguarded trace spans in lib/ (enforcing) =="
total=0
bad=0
found=
for f in $(find lib -name '*.ml' | sort); do
  hits=$(census "$f")
  [ -n "$hits" ] || continue
  while IFS= read -r hit; do
    total=$((total + 1))
    key=${hit%% *}
    found="$found$key
"
    if grep -qxF "$key" "$allow"; then
      echo "  ok    $f:${hit#* }"
    else
      echo "  FAIL  $f:${hit#* }"
      echo "        builds its closure with tracing off -- guard it with"
      echo "        Sky_trace.Trace.is_enabled (), or allowlist a cold site"
      bad=$((bad + 1))
    fi
  done <<EOF2
$hits
EOF2
done

# A stale entry would let a future hot site hide behind an old reason.
while IFS= read -r entry; do
  case "$entry" in ''|'#'*) continue ;; esac
  if ! printf '%s' "$found" | grep -qxF "$entry"; then
    echo "  STALE $entry (allowlisted but no such unguarded span)"
    bad=$((bad + 1))
  fi
done < "$allow"

echo "== $total unguarded span(s), $bad unlisted/stale =="
if [ "$bad" -gt 0 ]; then
  exit 1
fi
exit 0
