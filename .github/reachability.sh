#!/usr/bin/env bash
# Lists the functions declared in internal/ (non-test files) that no binary
# links: every cmd/*, every examples/* and the bench module, each built with
# inlining off so the linker's -dumpdep graph names every function it keeps.
# Fails when that list differs from .github/unreached.txt, whose entries read
# "name  # reason": a new unreached function fails, and so does an entry that
# is now reached or gone. Run from anywhere: bash .github/reachability.sh
set -Eeuo pipefail
trap 'echo "reachability: line $LINENO failed: $BASH_COMMAND" >&2' ERR
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

dump() { go build -gcflags=all=-l -ldflags=-dumpdep -o /dev/null "$@" 2>&1; }
{
	for d in cmd/*/ examples/*/; do dump "./$d"; done
	(cd bench && dump .)
} >"$tmp/dep" || { cat "$tmp/dep" >&2; exit 1; }

# Reached: every flashqos/internal symbol on either side of an edge. The
# arginfo/argliveinfo/stkobj/wrapinfo data symbols are content-addressed, so
# one copy is shared by unrelated functions and names only one of them; drop
# them. Then strip generic shapes, pointer receivers and closure suffixes.
tr -s ' ' '\n' <"$tmp/dep" | grep '^flashqos/internal/' |
	grep -Ev '\.(arginfo[0-9]*|argliveinfo|stkobj|wrapinfo)$|\.\.stmp_' |
	sed -E 's|^flashqos/||; :a; s/\[[^][]*\]//; ta; s/\(\*?([^)]*)\)/\1/g' |
	sed -E 's/\.(func|gowrap|deferwrap)[0-9]+(\.[0-9]+)*$//' |
	sort -u >"$tmp/reached"

# Declared: "internal/pkg.Func" or "internal/pkg.Type.Method", init excluded.
# A file may declare no function (or only init), so neither grep may fail.
for f in $(find internal -name '*.go' -not -name '*_test.go' | sort); do
	pkg=$(dirname "$f")
	{ grep -E '^func ' "$f" || true; } |
		sed -E -n 's/^func \([A-Za-z0-9_]* ?\*?([A-Za-z0-9_]+)(\[[^]]*\])?\) ([A-Za-z0-9_]+).*/\1.\3/p;
			s/^func ([A-Za-z0-9_]+).*/\1/p' |
		{ grep -vx init || true; } | sed "s|^|$pkg.|"
done | sort -u >"$tmp/declared"

comm -23 "$tmp/declared" "$tmp/reached" >"$tmp/unreached"
sed -E 's/[[:space:]]*#.*//; /^$/d' .github/unreached.txt | sort -u >"$tmp/allowed"
if grep -vE '^[[:space:]]*(#.*)?$' .github/unreached.txt | grep -vE '^[^#]+#[[:space:]]*[^[:space:]]'; then
	echo "reachability: every .github/unreached.txt line needs a '# reason'" >&2
	exit 1
fi

status=0
if comm -23 "$tmp/unreached" "$tmp/allowed" | grep .; then
	echo "reachability: the functions above are linked by no binary; delete them or allowlist them with a reason" >&2
	status=1
fi
if comm -13 "$tmp/unreached" "$tmp/allowed" | grep .; then
	echo "reachability: the allowlisted names above are now reached or gone; drop them from .github/unreached.txt" >&2
	status=1
fi
[ "$status" = 0 ] && echo "reachability: $(wc -l <"$tmp/unreached") unreached functions, all allowlisted"
exit "$status"
