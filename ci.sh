#!/usr/bin/env sh
# Tier-1 verification + lint gate. Run before every push.
#
#   ./ci.sh            # build, test, clippy, fmt, doc
#
# The workspace builds fully offline (crates.io stand-ins live in shims/),
# so this needs no network access.
set -eu

cd "$(dirname "$0")"

# same_tree A B [A2 B2 ...]: each pair of directories holds the same
# files with the same bytes. Crash debris the commit protocol may leave
# behind (quarantine/, retired/) is not part of the committed state.
same_tree() {
    python3 - "$@" <<'EOF'
import os, sys

def snap(root):
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        rel = os.path.relpath(dirpath, root)
        if rel.split(os.sep)[0] in ("quarantine", "retired"):
            dirnames[:] = []
            continue
        for f in filenames:
            p = os.path.join(dirpath, f)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = fh.read()
    return out

for a, b in zip(sys.argv[1::2], sys.argv[2::2]):
    sa, sb = snap(a), snap(b)
    assert sa.keys() == sb.keys(), f"{a} vs {b}: {sorted(sa.keys() ^ sb.keys())}"
    for k in sa:
        assert sa[k] == sb[k], f"{a} vs {b}: {k} differs"
    assert sa, f"{a}: empty"
EOF
}

echo "==> cargo build --release"
cargo build --release

echo "==> one way to commit (structural guard)"
# The journal begin record is written by the store transaction and by
# nothing else, and only durable.rs builds a temp-file path: a second
# hand-rolled commit sequence fails here before it can drift. Comment
# lines may say what they like.
code_lines() {
    pat=$1; shift
    grep -rnH "$pat" "$@" --include='*.rs' | grep -Ev '^[^:]+:[0-9]+:[[:space:]]*//'
}
if code_lines 'journal_begin(' crates | grep -v '^crates/store/src/durable.rs:'; then
    echo "    journal_begin( is called outside crates/store/src/durable.rs"; exit 1
fi
[ "$(code_lines 'journal_begin(' crates/store/src/durable.rs | wc -l)" -eq 2 ] \
    || { echo "    journal_begin( must have one definition and one caller (Txn::begin)"; exit 1; }
if code_lines '\.tmp"' crates/store/src | grep -v '^crates/store/src/durable.rs:'; then
    echo "    a \".tmp\" path is built outside crates/store/src/durable.rs"; exit 1
fi
echo "    one begin-record writer, one temp-path builder"

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo clippy -q --workspace --all-targets -- -D warnings"
cargo clippy -q --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q --workspace

echo "==> fault-injection suite (crash matrix, retries, corruption properties)"
cargo test -q -p iri-store --test fault_injection

echo "==> crash-recovery matrix in release mode"
cargo test --release -q -p iri-store --test fault_injection crash_matrix

echo "==> JSON codec: exact round trips, no parser panics, linear-time parse (release)"
# A 512 KiB string and a 256-event Append line must each parse in under
# 1 s (about 1 ms when linear). Sabotage that trips it: restore the
# per-character branch in shims/serde_json's Parser::string that calls
# std::str::from_utf8(&self.bytes[self.pos..]) on the whole rest of the
# input once per character (14 s on the 512 KiB string).
cargo test --release -q --test json_codec

echo "==> tail fold is canonical at any batching; an append is 15 operations and one file (release)"
cargo test --release -q -p iri-store --test tail_fold
cargo test --release -q -p iri-store --test live_store an_append_costs

echo "==> store equivalence at paper scale (3M records, release)"
IRI_EQUIV_RECORDS=3000000 cargo test --release -q -p iri-bench --test store_equivalence

echo "==> simulator golden output and allocation budget (release)"
# sim_golden pins (events, chain head) of paper-1996 and community-churn at
# six simulated hours. Sabotage that trips it: drain the pending window in
# reverse prefix order in netsim's Router::flush_peer (`.drain(..).rev()`).
# sim_alloc_budget holds the same paper-1996 run to 1.1 x its measured
# allocation calls per committed event. Sabotage that trips it: hand
# process_update a deep copy of each received UPDATE in
# Router::handle_message (`&update.clone()`: 135.9 calls, budget 134.6).
cargo test --release -q --test sim_golden --test sim_alloc_budget

echo "==> figure binaries' golden output (release)"
# fig2-fig10, table1, headline, exchanges and ablations at small scales
# print byte-identically to the goldens captured before the figures moved
# onto the runner's chunked day step (iri_scenario::drive_day). Sabotage
# that trips it: drop the classifier warm-up in drive_day, by putting
# `if ev.time_ms < warmup_ms { continue; }` before `classifier.classify`.
cargo test --release -q -p iri-bench --test figures_golden

echo "==> bench_store --smoke (prune-ratio, query-speedup gates)"
cargo run --release -q -p iri-bench --bin bench_store -- --smoke \
    --out target/BENCH_store_smoke.json --dir target/bench_store_smoke.store
python3 -c "
import json, sys
r = json.load(open('target/BENCH_store_smoke.json'))
assert r['schema'] == 'bench-store-v4', r['schema']
assert r['reports_identical'] is True
assert r['windowed_prune_ratio'] >= 0.9, r['windowed_prune_ratio']
# Floor raised from 4.0 when the segment cache and column-projected decode
# landed: three smoke runs then measured 58.6x, 60.6x and 65.4x (worst
# 1-hour query vs the uncached forced full scan, was ~11x); 30.0 is 51 % of
# the lowest, inside the "no more than 60 % of measured" rule.
assert r['windowed_query_speedup'] >= 30.0, r['windowed_query_speedup']
" || { echo "    bench_store smoke gates failed"; exit 1; }
echo "    bench_store smoke gates passed"
python3 -c "
import json, sys
r = json.load(open('BENCH_store.json'))
assert r['schema'] == 'bench-store-v4', r['schema']
for key in ('effective_cores', 'windowed_prune_ratio', 'windowed_query_speedup',
            'reports_identical', 'queries', 'ingest'):
    assert key in r, key
" || { echo "    committed BENCH_store.json is not a well-formed v4 report"; exit 1; }
echo "    BENCH_store.json is well-formed bench-store-v4 JSON"

echo "==> benchmark/check.sh (four-workload benchmark smoke: every declared metric once, pass_ratio 1)"
benchmark/check.sh

echo "==> bench_serve --smoke (concurrent serving correctness gate)"
cargo run --release -q -p iri-bench --bin bench_serve -- --smoke --out target/BENCH_serve_smoke.json
python3 - target/BENCH_serve_smoke.json BENCH_serve.json <<'EOF' || { echo "    bench_serve gates failed"; exit 1; }
import json, sys
for path in sys.argv[1:]:
    r = json.load(open(path))
    assert r['schema'] == 'bench-serve-v4', (path, r['schema'])
    for key in ('shed', 'errors', 'wrong_answers', 'retired_dirs_left'):
        assert r[key] == 0, (path, key, r[key])
    assert r['replies_ok'] == r['requests_attempted'], (path, r['replies_ok'], r['requests_attempted'])
    assert r['verified_against_offline'] is True, path
EOF
echo "    smoke and committed BENCH_serve.json: every request answered once, none shed, none wrong"

echo "==> bench_watch --smoke (incident detection precision/recall gate)"
cargo run --release -q -p iri-bench --bin bench_watch -- --smoke --out target/BENCH_watch_smoke.json
python3 -m json.tool target/BENCH_watch_smoke.json > /dev/null
echo "    bench_watch smoke report is well-formed JSON"
python3 -m json.tool BENCH_watch.json > /dev/null
echo "    BENCH_watch.json is well-formed JSON"

echo "==> bench_obs (observability overhead gate, spans + registry on)"
cargo run --release -q -p iri-bench --bin bench_obs -- --records 1000000 --iters 3 --out target/BENCH_obs_ci.json
python3 -c "
import json, sys
r = json.load(open('target/BENCH_obs_ci.json'))
worst = max(r['obs_overhead_pct_jobs1'], r['obs_overhead_pct_jobs4'])
sys.exit(0 if worst <= r['budget_pct'] else 1)
" || { echo "    bench_obs: instrumentation overhead above the 5% budget"; exit 1; }
echo "    observability overhead within the 5% budget"

echo "==> scenario packs: strict-parse every pack in packs/"
for p in packs/*.toml; do
    ./target/release/run_scenario --pack "$p" --check
done

echo "==> scenario pack end-to-end smoke (1 simulated hour, streaming runner)"
rm -rf target/ci_pack_smoke.store target/ci_pack_smoke.store-ribspill
./target/release/run_scenario --pack packs/quiet.toml \
    --store target/ci_pack_smoke.store --hours 1 --report-json target/ci_pack_smoke.json
python3 -c "
import json, sys
r = json.load(open('target/ci_pack_smoke.json'))
sys.exit(0 if r['events_written'] > 0 and r['store_generation'] > 0 else 1)
" || { echo "    pack smoke run committed nothing"; exit 1; }
echo "    quiet pack streamed 1 simulated hour into a live store"

echo "==> chain kill-and-resume smoke (record, kill after a committed batch, resume mid-run)"
# paper-1996 at 6 h a day writes ~7 300 events over three days; chunk 90
# falls on day 3, after the first 4 096-event batch has committed, so the
# resume starts from the store's committed prefix, not from event 0.
# Sabotage that trips it: --kill-after-chunks 2 (a kill in warm-up).
rm -rf target/ci_chain_ref.store target/ci_chain_ref.store-chain \
       target/ci_chain_ref.store-ribspill target/ci_chain_res.store \
       target/ci_chain_res.store-chain target/ci_chain_res.store-ribspill
./target/release/run_scenario --pack packs/paper_1996.toml \
    --store target/ci_chain_ref.store --hours 6 --record > /dev/null
code=0
./target/release/run_scenario --pack packs/paper_1996.toml \
    --store target/ci_chain_res.store --hours 6 --record \
    --kill-after-chunks 90 > /dev/null || code=$?
[ "$code" -eq 9 ] || { echo "    --kill-after-chunks must exit 9, got $code"; exit 1; }
./target/release/run_scenario --pack packs/paper_1996.toml \
    --store target/ci_chain_res.store --hours 6 --resume \
    --report-json target/ci_chain_res.json > /dev/null
python3 -c "
import json
r = json.load(open('target/ci_chain_res.json'))
assert 0 < r['resumed_from'] < r['events_written'], (r['resumed_from'], r['events_written'])
" || { echo "    the resume did not start mid-run"; exit 1; }
same_tree target/ci_chain_ref.store target/ci_chain_res.store \
          target/ci_chain_ref.store-chain target/ci_chain_res.store-chain
echo "    resumed mid-run; store and chain are byte-identical to the unkilled run's"

echo "==> chain replay-equivalence smoke (paper-1996 pack, 1 simulated hour)"
rm -rf target/ci_replay_rec.store target/ci_replay_rec.store-chain \
       target/ci_replay_rec.store-ribspill target/ci_replay_rep.store \
       target/ci_replay_rep.store-chain target/ci_replay_rep.store-ribspill
./target/release/run_scenario --pack packs/paper_1996.toml \
    --store target/ci_replay_rec.store --hours 1 --record > /dev/null
./target/release/run_scenario --pack packs/paper_1996.toml \
    --store target/ci_replay_rep.store --hours 1 --replay \
    --chain target/ci_replay_rec.store-chain > /dev/null
same_tree target/ci_replay_rec.store target/ci_replay_rep.store
echo "    replay from the chain re-derived a byte-identical store"

echo "==> tracescope watch --state restart smoke"
rm -f target/ci_watch_state.json
./target/release/tracescope watch target/ci_pack_smoke.store \
    --rounds 1 --state target/ci_watch_state.json > /dev/null
./target/release/tracescope watch target/ci_pack_smoke.store \
    --rounds 1 --state target/ci_watch_state.json > target/ci_watch_resume.log
grep -q "resuming from" target/ci_watch_resume.log
echo "    restarted watch resumed from the persisted watermark"

echo "==> bench_scale (RSS + detection + resume gates; chain heads pinned to BENCH_scale.json)"
# Sabotage that trips it: swap two fields in iri_chain::encode_event.
cargo run --release -q -p iri-bench --bin bench_scale -- --out target/BENCH_scale_ci.json
python3 - target/BENCH_scale_ci.json BENCH_scale.json <<'EOF' || { echo "    bench_scale does not reproduce the committed chain heads"; exit 1; }
import json, sys
run, committed = (json.load(open(p)) for p in sys.argv[1:])
for r in (run, committed):
    assert r['schema'] == 'bench-scale-v2', r['schema']
    assert all(p['chain_head'] for p in r['scale_points'])
pins = lambda r: [(p['chain_head'], p['events_written']) for p in r['scale_points']]
assert pins(run) == pins(committed), (pins(run), pins(committed))
assert run['resume']['heads_match'] is committed['resume']['heads_match'] is True
EOF
echo "    every point's chain head and event count equal the committed BENCH_scale.json"

echo "==> tracescope --connect smoke (live health + metrics surface)"
rm -rf target/ci_connect.store target/ci_serve.fifo target/ci_serve.log
mkfifo target/ci_serve.fifo
./target/release/iri-serve target/ci_connect.store --create-rows 2048 --addr 127.0.0.1:0 \
    < target/ci_serve.fifo > target/ci_serve.log &
SERVE_PID=$!
exec 9> target/ci_serve.fifo
i=0
while ! grep -q "listening on" target/ci_serve.log 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "    iri-serve did not come up"; kill "$SERVE_PID"; exit 1; }
    sleep 0.1
done
SERVE_ADDR=$(sed -n 's/^listening on //p' target/ci_serve.log)
./target/release/iriq --connect "$SERVE_ADDR" count-by-class > /dev/null
./target/release/tracescope --connect "$SERVE_ADDR" > target/ci_tracescope.log
grep -q "span tracer" target/ci_tracescope.log
grep -q "serve.plan.total_us" target/ci_tracescope.log
echo "quit" >&9
exec 9>&-
wait "$SERVE_PID"
echo "    tracescope --connect rendered health + metrics from a live server"

echo "ci: all green"
