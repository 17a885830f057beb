#!/usr/bin/env bash
# Lists the exported fields of every internal/ *Config and *Options struct
# (non-test files) that no non-test Go file outside the field's own package
# sets: no cmd/*, no examples/*, no other internal/ package and not the
# bench module. A field counts as set where a composite literal names it
# ("F: v") or an assignment writes it (".F = v", nested ".X.F = v"
# included). Matching is by name, so a collision can only let a field pass.
# Fails when that list differs from .github/options.txt, whose entries read
# "internal/pkg.Type.Field  # reason": an unset field that is not listed
# fails, and so does an entry that is now set or gone. A field only tests
# set is a constant in disguise. Run from anywhere: bash .github/options.sh
set -Eeuo pipefail
trap 'echo "options: line $LINENO failed: $BASH_COMMAND" >&2' ERR
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Fields: "dir<TAB>internal/pkg.Type.Field" for each exported field name,
# "A, B int" declaring two. Comment lines and unexported fields are skipped.
for f in $(find internal -name '*.go' -not -name '*_test.go' | sort); do
	awk -v dir="$(dirname "$f")" '
		/^type [A-Za-z0-9_]*(Config|Options) struct \{/ { typ = $2; next }
		typ != "" && /^}/ { typ = ""; next }
		typ != "" {
			line = $0
			sub(/\/\/.*/, "", line)
			gsub(/[ \t]*,[ \t]*/, ",", line)
			if (split(line, w, /[ \t]+/) < 3 || w[2] !~ /^[A-Z]/) next
			n = split(w[2], parts, ",")
			for (i = 1; i <= n; i++) if (parts[i] ~ /^[A-Z]/) printf "%s\t%s.%s.%s\n", dir, dir, typ, parts[i]
		}' "$f"
done | sort -u >"$tmp/fields"

find . -name '*.go' -not -name '*_test.go' -not -path './.bench_build/*' | sed 's|^\./||' | sort >"$tmp/files"

while IFS=$'\t' read -r dir field; do
	name=${field##*.}
	grep -v "^$dir/[^/]*\.go$" "$tmp/files" |
		xargs grep -lE "(^|[^A-Za-z0-9_.])$name[[:space:]]*:([^=]|\$)|\.$name(\.[A-Za-z0-9_]+)*[[:space:]]*([-+*/|&]?=([^=]|\$)|\+\+|--)" >/dev/null ||
		echo "$field"
done <"$tmp/fields" | sort -u >"$tmp/unset"

sed -E 's/[[:space:]]*#.*//; /^$/d' .github/options.txt | sort -u >"$tmp/allowed"
if grep -vE '^[[:space:]]*(#.*)?$' .github/options.txt | grep -vE '^[^#]+#[[:space:]]*[^[:space:]]'; then
	echo "options: every .github/options.txt line needs a '# reason'" >&2
	exit 1
fi

status=0
if comm -23 "$tmp/unset" "$tmp/allowed" | grep .; then
	echo "options: the fields above are set by no non-test code outside their package; make them constants or allowlist them with a reason" >&2
	status=1
fi
if comm -13 "$tmp/unset" "$tmp/allowed" | grep .; then
	echo "options: the allowlisted fields above are now set or gone; drop them from .github/options.txt" >&2
	status=1
fi
[ "$status" = 0 ] && echo "options: $(wc -l <"$tmp/fields") settable fields, $(wc -l <"$tmp/unset") set only inside their package or by tests, all allowlisted"
exit "$status"
