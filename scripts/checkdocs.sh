#!/usr/bin/env bash
# checkdocs.sh — documentation gate, run by CI and usable locally.
#
#   1. gofmt: no Go file may need reformatting.
#   2. Required docs exist: README.md, ARCHITECTURE.md, docs/SQL.md.
#   3. Intra-repo markdown links resolve: every [text](target) in a
#      tracked *.md file (docs/ included) whose target is not an URL or
#      pure anchor must point at an existing file (anchors after '#' are
#      stripped). SNIPPETS.md is exempt: it quotes exemplar material from
#      external repositories verbatim, including their internal links.
#   4. Every examples/* program builds and runs to completion.
#   5. No compiled test binary (*.test) is tracked — they are build
#      artifacts and belong in .gitignore, not the tree.
#   6. Removed entry points stay gone: the engine knob (MVOPT_EXEC, -exec=,
#      SetExecBatch), the mode-picked copy-on-write base folds
#      (ApplyInsertsCOW, ApplyDeletesCOWPar), the unused column index
#      (BuildHashIndex) and the benchmark drivers the ledger replaced
#      (ConcurrentServe, DurableServe, DurableRefresh, ParallelRefresh,
#      PartitionedRefresh, mvserve -stream-batches; matched as whole words)
#      and the sharded × adaptive refusal (errAdaptSharded) appear nowhere
#      in the live docs, scripts, CI or code. EXPERIMENTS.md, CHANGES.md,
#      ROADMAP.md and benchmark/ are the historical record and are not
#      scanned, nor is this script.
set -u
cd "$(dirname "$0")/.."
fail=0

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    fail=1
fi

for doc in README.md ARCHITECTURE.md docs/SQL.md; do
    if [ ! -f "$doc" ]; then
        echo "missing required doc: $doc" >&2
        fail=1
    fi
done

while IFS=: read -r file target; do
    case "$target" in
        http://*|https://*|mailto:*|'#'*) continue ;;
    esac
    path="${target%%#*}"
    [ -z "$path" ] && continue
    if [ ! -e "$(dirname "$file")/$path" ]; then
        echo "$file: broken link -> $target" >&2
        fail=1
    fi
done < <(git ls-files '*.md' | grep -v '^SNIPPETS\.md$' | while read -r f; do
    grep -o '\[[^]]*\]([^)]*)' "$f" 2>/dev/null \
        | sed -e 's/^\[[^]]*\](//' -e 's/)$//' \
        | while read -r t; do printf '%s:%s\n' "$f" "$t"; done
done)

tracked_bins=$(git ls-files '*.test')
if [ -n "$tracked_bins" ]; then
    echo "tracked test binaries (delete and gitignore):" >&2
    echo "$tracked_bins" >&2
    fail=1
fi

knob=$(grep -rnE -e 'MVOPT_EXEC|-exec=|SetExecBatch|ApplyInsertsCOW|ApplyDeletesCOWPar|BuildHashIndex' \
    -e '\b(ConcurrentServe|DurableServe|DurableRefresh|ParallelRefresh|PartitionedRefresh)\b|-stream-batches|errAdaptSharded' \
    README.md ARCHITECTURE.md docs scripts .github cmd internal examples ./*.go \
    | grep -v '^scripts/checkdocs\.sh:')
if [ -n "$knob" ]; then
    echo "a removed entry point is mentioned again:" >&2
    echo "$knob" >&2
    fail=1
fi

for ex in examples/*/; do
    ex="${ex%/}"
    if ! out=$(go run "./$ex" 2>&1); then
        echo "example $ex failed:" >&2
        echo "$out" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "checkdocs: FAILED" >&2
    exit 1
fi
echo "checkdocs: OK"
