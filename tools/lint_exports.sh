#!/bin/sh
# Enforcing lint: no export or definition in lib/ that nothing names.
#
# Code that no gate, test or experiment needs is deleted, not parked.
# The compiler flags a dead definition only through an interface: once
# a `val` is in an `.mli`, its definition counts as used whether or not
# any caller exists, and a module without an `.mli` exports everything.
# This census closes both gaps with a word search over every `.ml` and
# `.mli` under lib, bin, test, examples and bench/perf (tests, examples
# and the benchmark count as callers):
#
# - a flush-left `val` in lib/*/*.mli fails when no file other than its
#   own module's `.ml`/`.mli` names it as a word;
# - a flush-left `let` in a lib/*/*.ml without an `.mli` fails when no
#   line but its own definition line names it as a word.
#
# A word search over-approximates use (any same-named identifier, even
# in a comment, counts), so a pass is not a proof that every export is
# needed; a failure is always real.  The only exceptions are the
# `file:name` entries of tools/lint_exports.allow, each under a comment
# giving its reason; an entry the census no longer finds fails too.
set -u
cd "$(dirname "$0")/.."

allow=tools/lint_exports.allow
ident="[a-z_][A-Za-z0-9_']*"

# targets prints `export FILE NAME LINE` for every flush-left `val` of an
# interface and `def FILE NAME LINE` for every flush-left `let` of an
# implementation without one (`let rec` included, `let ()`/`let _` not).
targets() {
  for f in lib/*/*.mli; do
    awk -v f="$f" -v id="$ident" '
      $0 ~ ("^val +" id) { n = $2; sub(/[^A-Za-z0-9_'\''].*$/, "", n); print "export", f, n, NR }
    ' "$f"
  done
  for f in lib/*/*.ml; do
    [ -e "${f}i" ] && continue
    awk -v f="$f" -v id="$ident" '
      $0 ~ ("^let +(rec +)?" id) {
        n = ($2 == "rec") ? $3 : $2
        sub(/[^A-Za-z0-9_'\''].*$/, "", n)
        if (n != "_" && n != "") print "def", f, n, NR
      }
    ' "$f"
  done
}

files=$(find lib bin test examples bench/perf \( -name '*.ml' -o -name '*.mli' \) | sort)

# findings prints `FILE:NAME WHY` for every target nothing names: the
# targets come first on stdin, then every word of every file is checked
# against their names.
findings=$(targets | awk '
  FNR == NR { kind[NR] = $1; file[NR] = $2; name[NR] = $3; line[NR] = $4
              want[$3] = 1; nt = NR; next }
  {
    s = $0
    while (match(s, /[A-Za-z_][A-Za-z0-9_'\'']*/)) {
      w = substr(s, RSTART, RLENGTH)
      s = substr(s, RSTART + RLENGTH)
      if (!(w in want) || ((w, FILENAME, FNR) in at)) continue
      at[w, FILENAME, FNR] = 1
      occ[w] = occ[w] " " FILENAME ":" FNR
    }
  }
  END {
    for (i = 1; i <= nt; i++) {
      n = split(occ[name[i]], o, " ")
      used = 0
      if (kind[i] == "export") {
        ml = file[i]; sub(/i$/, "", ml)
        for (j = 1; j <= n && !used; j++) {
          f = o[j]; sub(/:[0-9]+$/, "", f)
          if (f != file[i] && f != ml) used = 1
        }
        if (!used) print file[i] ":" name[i] " export named by no other file"
      } else {
        for (j = 1; j <= n && !used; j++)
          if (o[j] != file[i] ":" line[i]) used = 1
        if (!used) print file[i] ":" name[i] " definition named by no other line (line " line[i] ")"
      }
    }
  }
' - $files)

echo "== exports and definitions in lib/ that nothing names (enforcing) =="
total=0
bad=0
found=
if [ -n "$findings" ]; then
  while IFS= read -r hit; do
    total=$((total + 1))
    key=${hit%% *}
    found="$found$key
"
    if grep -qxF "$key" "$allow"; then
      echo "  ok    $hit (allowlisted)"
    else
      echo "  FAIL  $hit"
      echo "        delete it (and what only it used), or allowlist it with its reason"
      bad=$((bad + 1))
    fi
  done <<EOF
$findings
EOF
fi

# Each allowlist entry sits under a `#` comment giving its reason, and
# names something the census still finds: a stale entry would let a
# future dead export hide behind an old reason.
prev=
while IFS= read -r entry; do
  case "$entry" in
    '') prev= ; continue ;;
    '#'*) prev=$entry; continue ;;
  esac
  if [ -z "$prev" ]; then
    echo "  FAIL  $entry (allowlisted without a reason comment above it)"
    bad=$((bad + 1))
  fi
  if ! printf '%s' "$found" | grep -qxF "$entry"; then
    echo "  STALE $entry (allowlisted but named elsewhere or gone)"
    bad=$((bad + 1))
  fi
  prev=$entry
done < "$allow"

echo "== $total unnamed export(s)/definition(s), $bad unlisted/stale =="
if [ "$bad" -gt 0 ]; then
  exit 1
fi
exit 0
