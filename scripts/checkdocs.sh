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
#      the sharded × adaptive refusal (errAdaptSharded), the test-only
#      adaptation retirement log (retainRetired), the serving-generation
#      list's refusal of a snapshot that outlived its generation ("no
#      serving generation retained") and the partition config's copy on the
#      optimizer's evaluation state (.Eval.Par), and the partition-parallel
#      operator twins (SetPartitions, ParClone, ParMinusCOW, ApplyDeletesPar,
#      forRanges, TestServePartitionCountIndependence), the second plan
#      walker (execC, otherJoinChild), the row-tuple aggregate arm
#      (absorbOne), the word-range bitmap helpers (ZeroWords, AndWords,
#      CopyWords), the uncalled singleView, and the adaptation options,
#      background rounds and armed-swap discard (AdaptOptions,
#      InstallPending, noteDiscard, EveryCycles, MinDrift, MinImprovement,
#      TestStaleSwapIsDiscarded, TestEnableAdaptBackgroundRounds), the
#      delete-merge's stored-side scan and its plain-loop fallback
#      (minusScratch, deadRows, carriesHashes) and the uncalled bitmap range
#      helpers (SetRange, ClearRange, CountRange, ForEachRange, FromBools,
#      ToBools), and the networked shard fleet (mvshard, shard-addrs,
#      shardsmoke, EnableShardedClients, ReplaceClient, Rejoin, RPCClient,
#      TestShardKillDuringInstall, TestRPCTransport, SHARD_CRASH_ITERS),
#      the result cache's cold-cost map that the base-plan memo
#      replaced (coldCost), and the group-commit window's knobs
#      (DefaultCommitWindow, DefaultSyncBytes, SyncBytes, queuedBytes,
#      lastGroup, -commit-window), and online re-selection with its
#      drivers, its feedback corrections and its snapshot-carried set
#      (EnableAdapt, AdaptStats, AdaptResult, errAdaptDurable,
#      AdaptiveServe, AdaptiveVsStatic, FeedbackExperiment, PublishSet,
#      Rebind, WorkloadReport, benchjson), the hash-partition view with its
#      knobs and helpers (PartView, ScatterByHash, ParMinRows, RunWorkers,
#      buildPartView) and the dead drift, skew and EWMA generators
#      (DriftPhases, DriftServeMix, LogSkewedUpdates, DefaultAlpha), and the
#      second serving driver the ledger made redundant (ShardedServe,
#      ShardedServeConfig, ShardedServeResult, BenchmarkShardedServe,
#      TestShardedServe, TestShardedServeBaseline, TestConcurrentServe,
#      DefaultServeQueries, DefaultPartitions, mvserve), and the uncalled
#      FNV-1a string hash the word-at-a-time fold retired (HashString; the
#      match is case-sensitive, so the fold's hashString helper is another
#      word) (whole words;
#      FuzzBatchFromPartView and TestShardedConcurrentReaders are other
#      words) appear nowhere in the live docs, scripts, CI or code. EXPERIMENTS.md, CHANGES.md,
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
    -e 'retainRetired|no serving generation retained|\.Eval\.Par\b' \
    -e 'SetPartitions|ParClone|ParMinusCOW|ApplyDeletesPar|\bforRanges|TestServePartitionCountIndependence' \
    -e '\b(execC|otherJoinChild|absorbOne|ZeroWords|AndWords|CopyWords|singleView)\b' \
    -e '\b(AdaptOptions|InstallPending|noteDiscard|EveryCycles|MinDrift|MinImprovement)\b' \
    -e '\b(TestStaleSwapIsDiscarded|TestEnableAdaptBackgroundRounds)\b' \
    -e '\b(minusScratch|deadRows|carriesHashes|SetRange|ClearRange|CountRange|ForEachRange|FromBools|ToBools)\b' \
    -e '\b(mvshard|shard-addrs|shardsmoke|EnableShardedClients|ReplaceClient|Rejoin|RPCClient)\b' \
    -e '\b(TestShardKillDuringInstall|TestRPCTransport|SHARD_CRASH_ITERS|coldCost)\b' \
    -e '\b(DefaultCommitWindow|DefaultSyncBytes|SyncBytes|queuedBytes|lastGroup)\b|-commit-window' \
    -e '\b(EnableAdapt|AdaptStats|AdaptResult|errAdaptDurable|AdaptiveServe|AdaptiveVsStatic)\b' \
    -e '\b(FeedbackExperiment|PublishSet|Rebind|WorkloadReport|benchjson)\b' \
    -e '\b(PartView|ScatterByHash|ParMinRows|RunWorkers|buildPartView)\b' \
    -e '\b(DriftPhases|DriftServeMix|LogSkewedUpdates|DefaultAlpha)\b' \
    -e '\b(ShardedServe|ShardedServeConfig|ShardedServeResult|BenchmarkShardedServe)\b' \
    -e '\b(TestShardedServe|TestShardedServeBaseline|TestConcurrentServe)\b' \
    -e '\b(DefaultServeQueries|DefaultPartitions|mvserve)\b' \
    -e '\bHashString\b' \
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
