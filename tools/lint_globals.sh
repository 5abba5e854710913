#!/bin/sh
# Enforcing lint: inventory toplevel mutable host state in lib/.
#
# Isoflow audits guest-visible state (page tables, EPTs, VMCS EPTP
# lists) but cannot see host-side OCaml globals.  Every toplevel
# `ref`/`Hashtbl.create`/`Atomic.make`/... in lib/ is simulator state
# that survives across scenario builds and — now that the quantum
# scheduler runs shards on OCaml domains and `--jobs` runs whole
# replicas concurrently — can leak between runs racing on different
# domains.  The Accel kill-switch bug (a process-global Atomic flipped
# mid-run by one replica, perturbing the others) is exactly the class
# this catches.
#
# Every finding must appear in tools/lint_globals.allow with a reviewed
# domain-safety classification; an unlisted finding fails the build.
# The fix for a real finding is the scoped-world pattern: move the
# state into Sky_sim.Scopes (or the fast-default + Domain.DLS override
# pattern it is built from), not the allowlist.
set -u
cd "$(dirname "$0")/.."

allow=tools/lint_globals.allow

# A toplevel binding is a flush-left `let`, or a `let` indented two
# spaces inside a flush-left `module ... = struct ... end`; we flag ones
# whose right-hand side constructs mutable state.  A `let ... =` that
# ends its line is read together with the next line, so a type
# annotation cannot push the constructor out of sight.  Heuristic by
# design -- false negatives are acceptable, the goal is a cheap
# reviewable census, not a proof.
#
# census FILE prints `SYMBOL LINE:TEXT` for every finding in FILE.
census() {
  awk '
    function flag(n, text,   sym) {
      sub(/^ +/, "", text)
      if (text ~ /^let [a-zA-Z_0-9]* *(: *[^=]*)?= *(ref |ref$|Hashtbl\.create|Array\.make|Array\.create|Bytes\.make|Bytes\.create|Buffer\.create|Queue\.create|Stack\.create|Atomic\.make|Mutex\.create)/) {
        sym = substr(text, 5)
        sub(/[^a-zA-Z_0-9].*$/, "", sym)
        print sym " " n ":" text
      }
    }
    pending != "" {
      rest = $0
      sub(/^ +/, "", rest)
      flag(pending_nr, pending " " rest)
      pending = ""
    }
    /^module .*= *struct *$/ { in_module = 1; next }
    in_module && /^end/ { in_module = 0; next }
    /^let / || (in_module && /^  let /) {
      if ($0 ~ /= *$/) { pending = $0; pending_nr = NR } else flag(NR, $0)
    }
  ' "$1"
}

echo "== toplevel mutable host state in lib/ (enforcing) =="
total=0
bad=0
found=
for f in $(find lib -name '*.ml' | sort); do
  hits=$(census "$f")
  [ -n "$hits" ] || continue
  while IFS= read -r hit; do
    total=$((total + 1))
    sym=${hit%% *}
    found="$found$f:$sym
"
    if grep -q "^$f:$sym\$" "$allow"; then
      echo "  ok    $f:${hit#* }"
    else
      echo "  FAIL  $f:${hit#* }"
      echo "        not in $allow -- move it into a scoped bundle"
      echo "        (Sky_sim.Scopes / Domain.DLS override) or review and allowlist it"
      bad=$((bad + 1))
    fi
  done <<EOF
$hits
EOF
done

# Stale allowlist entries rot the census: flag entries the census above
# did not find, so the list shrinks as globals are burned down.
while IFS= read -r entry; do
  case "$entry" in ''|'#'*) continue ;; esac
  if ! printf '%s' "$found" | grep -qxF "$entry"; then
    echo "  STALE $entry (allowlisted but no such mutable binding)"
    bad=$((bad + 1))
  fi
done < "$allow"

echo "== $total toplevel mutable binding(s), $bad unreviewed/stale =="
if [ "$bad" -gt 0 ]; then
  exit 1
fi
echo "(all findings reviewed; audit passes cover guest-visible state, this inventories host state)"
exit 0
