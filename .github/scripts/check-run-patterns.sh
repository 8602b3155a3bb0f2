#!/usr/bin/env bash
# A `go test -run 'A|B|C'` alternative that matches no test passes
# silently: the step stays green while running nothing. This expands every
# -run pattern of every `go test` line in ci.yml against `go test -list`
# over that line's packages, and fails on any alternative matching zero
# tests. Run from the repository root.
set -euo pipefail

ci=.github/workflows/ci.yml
dead=0
while IFS= read -r line; do
	read -r -a words <<<"$line"
	pattern="" pkgs=()
	for ((i = 0; i < ${#words[@]}; i++)); do
		w=${words[i]}
		case "$w" in
		-run) pattern=${words[++i]} ;;
		-bench | -benchtime | -count | -timeout) i=$((i + 1)) ;;
		./* | .) pkgs+=("$w") ;;
		esac
	done
	pattern=${pattern//\'/}
	[[ -z $pattern || $pattern == '^$' ]] && continue
	IFS='|' read -r -a alts <<<"$pattern"
	for alt in "${alts[@]}"; do
		listed=$(go test -list "$alt" "${pkgs[@]}")
		if ! grep -qv -e '^ok' -e '^?' <<<"$listed"; then
			echo "ci.yml: -run alternative '$alt' matches no test in ${pkgs[*]}" >&2
			dead=1
		fi
	done
done < <(grep -E '(run:|^[[:space:]]+)[[:space:]]*go test .*-run ' "$ci" | sed -E 's/^[[:space:]]*(run:)?[[:space:]]*//')
exit $dead
