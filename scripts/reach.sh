#!/usr/bin/env bash
# reach.sh lists every func declared in a non-test file under internal/ or in
# the root package that none of the reaching binaries links, and fails when
# one of them is missing from scripts/reach.allow.
#
# The reaching binaries are the cmd/ programs (the daemon among them),
# ./benchmark (the workloads) and the root test binary (the figure tests).
# They are built with inlining off, so a function that is only ever inlined
# still shows in the symbol table.
#
#   bash scripts/reach.sh          # check against the allowlist
#   bash scripts/reach.sh -list    # print every unlinked function
set -euo pipefail
cd "$(dirname "$0")/.."
mod=$(go list -m)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for d in cmd/*/ benchmark/; do
	go build -gcflags=all=-l -o "$tmp/bin.$(basename "$d")" "./$d"
done
go test -c -gcflags=all=-l -o "$tmp/bin.root" .
for b in "$tmp"/bin.*; do
	go tool nm "$b" | awk '$2 == "T" || $2 == "t" { print $3 }'
done | sed -E ':a; s/\[[^][]*\]//; ta; s/\.func[0-9.]+$//' | sort -u >"$tmp/linked"

# Declared funcs, named as nm names them: pkg.F, pkg.T.M, pkg.(*T).M.
for f in $(git ls-files -co --exclude-standard '*.go' | grep -Ev '_test\.go$' | grep -E '^(internal/|[^/]+\.go$)'); do
	[ -f "$f" ] || continue
	dir=$(dirname "$f")
	pkg=$mod
	[ "$dir" != . ] && pkg="$mod/$dir"
	awk -v pkg="$pkg" -v file="$f" '
	/^func / {
		line = $0
		sub(/^func /, "", line)
		recv = ""
		if (line ~ /^\(/) {
			recv = line
			sub(/\).*/, "", recv)
			sub(/^\(/, "", recv)
			sub(/^\([^)]*\) */, "", line)
			n = split(recv, parts, " ")
			recv = parts[n]
			sub(/\[.*/, "", recv)
			if (recv ~ /^\*/) { sub(/^\*/, "", recv); recv = "(*" recv ")" }
			recv = recv "."
		}
		name = line
		sub(/[[(].*/, "", name)
		print pkg "." recv name "\t" file
	}' "$f"
done | sort -u >"$tmp/declared"

awk -F'\t' 'NR == FNR { linked[$1] = 1; next } !($1 in linked)' \
	"$tmp/linked" "$tmp/declared" >"$tmp/unlinked"

if [ "${1:-}" = -list ]; then
	cat "$tmp/unlinked"
	exit 0
fi

# An allowlist line is "<symbol> <reason>"; blank lines and # comments skip.
grep -Ev '^[[:space:]]*(#|$)' scripts/reach.allow | awk '{ print $1 }' | sort -u >"$tmp/allowed"
bad=$(awk -F'\t' 'NR == FNR { ok[$1] = 1; next } !($1 in ok) { print $1 "  (" $2 ")" }' \
	"$tmp/allowed" "$tmp/unlinked")
stale=$(awk -F'\t' 'NR == FNR { u[$1] = 1; next } !($1 in u)' "$tmp/unlinked" "$tmp/allowed")
if [ -n "$bad" ]; then
	echo "functions no command, daemon, figure test or workload links:"
	echo "$bad"
	echo "delete them, or add each to scripts/reach.allow with its reason"
fi
if [ -n "$stale" ]; then
	echo "scripts/reach.allow names functions that are linked or gone:"
	echo "$stale"
fi
if [ -n "$bad" ] || [ -n "$stale" ]; then
	exit 1
fi
echo "reach: $(wc -l <"$tmp/declared") funcs declared, $(wc -l <"$tmp/unlinked") unlinked, all allowlisted"
