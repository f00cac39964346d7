#!/usr/bin/env bash
# ci-names.sh fails when a test name in a -run or -fuzz pattern of
# .github/workflows/ci.yml matches no test of the packages that command
# runs. A pattern that names a deleted or renamed test matches nothing, and
# `go test` still passes, so the step would go on running without it.
#
# Each `go test` line is read on its own: its patterns are cut at `|` into
# names (a `^(...)$` group anchors each name), and at least one test that
# `go test -list` prints for the line's ./ packages must match every name.
# The pattern `^$`, which runs no test on purpose, is skipped.
#
#   bash scripts/ci-names.sh
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
while IFS= read -r line; do
	pkgs=$(grep -oE '(^|[[:space:]])\./[^[:space:]]*' <<<"$line" | sed -E 's/^[[:space:]]+//' || true)
	if [ -z "$pkgs" ]; then
		echo "ci.yml: no ./ package on: $line"
		status=1
		continue
	fi
	# shellcheck disable=SC2086 # pkgs is a word list
	tests=$(go test -list . $pkgs | grep -E '^(Test|Fuzz|Benchmark|Example)' || true)
	while IFS= read -r pattern; do
		if [ -z "$pattern" ] || [ "$pattern" = '^$' ]; then
			continue
		fi
		anchored=false
		if [[ $pattern =~ ^\^\((.*)\)\$$ ]]; then
			anchored=true
			pattern=${BASH_REMATCH[1]}
		fi
		IFS='|' read -ra names <<<"$pattern"
		for name in "${names[@]}"; do
			re=$name
			$anchored && re="^$name\$"
			if ! grep -qE -- "$re" <<<"$tests"; then
				echo "ci.yml: $name matches no test in" $pkgs
				status=1
			fi
		done
	done < <(grep -oE -- "-(run|fuzz)[= ]('[^']*'|[^' ]+)" <<<"$line" | sed -E "s/^-(run|fuzz)[= ]//; s/^'//; s/'$//")
done < <(grep -E 'go test .*-(run|fuzz)' .github/workflows/ci.yml)
if [ "$status" = 0 ]; then
	echo "ci-names: every -run and -fuzz name in ci.yml matches a test"
fi
exit "$status"
