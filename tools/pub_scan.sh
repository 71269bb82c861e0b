#!/usr/bin/env bash
# Prints "<file> <name>" for every `pub fn|struct|enum|trait|const|type|static`
# item in crates/*/src whose name no other .rs file under crates, src, tests,
# examples or benchmarks/fdqos-bench mentions as a word (a `pub use`
# re-export in a lib.rs is not a mention). ci.sh compares the output with
# tools/pub_allowlist.txt. Run from anywhere: tools/pub_scan.sh
set -euo pipefail
export LC_ALL=C
cd "$(dirname "$0")/.."
files=$(find crates src tests examples benchmarks/fdqos-bench -name '*.rs' -not -path '*/target/*' \
    | sort)
# shellcheck disable=SC2086
awk '
FNR == 1 { in_use = 0; lib = (FILENAME ~ /(^|\/)lib\.rs$/) }
{
    line = $0
    if (lib && !in_use && line ~ /^[ \t]*pub use /) in_use = 1
    if (in_use) { if (line ~ /;/) in_use = 0; next }
    if (FILENAME ~ /^crates\/[^\/]+\/src\// &&
        match(line, /^[ \t]*pub (const |unsafe |async )*(fn|struct|enum|trait|const|type|static) [A-Za-z_][A-Za-z0-9_]*/)) {
        n = split(substr(line, RSTART, RLENGTH), parts, " ")
        def[parts[n] SUBSEP FILENAME] = 1
    }
    n = split(line, words, /[^A-Za-z0-9_]+/)
    for (i = 1; i <= n; i++) if (words[i] != "") seen[words[i] SUBSEP FILENAME] = 1
}
END {
    for (k in seen) { split(k, p, SUBSEP); files_naming[p[1]]++ }
    for (k in def) {
        split(k, p, SUBSEP)
        if (files_naming[p[1]] == 1) print p[2], p[1]
    }
}' $files | sort
