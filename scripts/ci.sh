#!/usr/bin/env bash
# Offline CI gate: build, test, format, lint. The workspace has no
# external dependencies, so everything runs with --offline and an empty
# cargo registry.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test --workspace (debug)"
# Every crate's unit and integration tests, unoptimised: debug frames
# are larger, so this is where the parser's nesting budget must still
# fit the default test-thread stack.
cargo test -q --offline --workspace

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> large-program scale smoke (100k statements, timed)"
# Generates a seed-deterministic ~100k-statement subject, checks it at
# jobs 1 and 4, byte-compares the reports, and enforces a sequential
# wall-clock ceiling, a sequential effects-phase ceiling (0.4 s at 100k)
# and an exact effects work budget (at most 1 M frame slots copied at
# 100k). All three hold or fail on any core count.
cargo run -q --release --offline -p leakchecker-bench --bin scale_smoke -- \
  --stmts 100000 --ceiling 60 --jobs-list 1,4

echo "==> effects lattice laws + width equivalence"
# Companion suites of the effects fixpoint: the lattice-law battery (the
# algebraic preconditions of the in-place branch join) and the exact
# EffectSummary equivalence sweep across jobs 1/2/8 (corpus exemplars,
# large generated subjects, 200 fuzz seeds, witness and fault-injected
# runs).
cargo test -q --offline --test effects_lattice --test effects_parallel

echo "==> fuzz smoke (200 fixed seeds, machine width)"
cargo run -q --release --offline -p leakchecker-cli --bin leakc -- \
  fuzz --seeds 200 --jobs 0

echo "==> fault-injection smoke (50 seeds: exhaust@3, panic@5, deadline@40)"
# The quarantined seed must surface as the degraded-incomplete exit
# code (3), never as clean (0) or as a soundness violation (1).
set +e
cargo run -q --release --offline -p leakchecker-cli --bin leakc -- \
  fuzz --seeds 50 --jobs 0 --inject exhaust@3,panic@5,deadline@40 2>/dev/null
rc=$?
set -e
if [ "$rc" -ne 3 ]; then
  echo "fault-injection smoke: expected exit 3 (degraded), got $rc" >&2
  exit 1
fi

echo "==> injected-deadline determinism (jobs 1 vs 8)"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
cargo run -q --release --offline -p leakchecker-cli --bin leakc -- \
  fuzz --seeds 25 --jobs 1 --inject deadline@0 --json "$tmpdir/j1.json" >/dev/null
cargo run -q --release --offline -p leakchecker-cli --bin leakc -- \
  fuzz --seeds 25 --jobs 8 --inject deadline@0 --json "$tmpdir/j8.json" >/dev/null
cmp "$tmpdir/j1.json" "$tmpdir/j8.json"

echo "==> corpus replay"
cargo test -q --offline --test corpus_replay

echo "==> server smoke (20 mixed requests, SIGTERM drain, workers 1 vs 8)"
# Start a daemon, drive it with the soak client's deterministic request
# mix (plain checks, governed checks, injected panics, malformed
# lines), SIGTERM it, and require a graceful drain (exit 0). Run twice
# at different worker widths; the normalized responses must be
# byte-identical.
leakc="./target/release/leakc"
soak="$(dirname "$leakc")/soak"
cargo build -q --release --offline -p leakchecker-bench --bin soak
serve_smoke() {
  local workers="$1" out="$2"
  "$leakc" serve --addr 127.0.0.1:0 --workers "$workers" \
    > "$tmpdir/serve-$workers.log" 2>/dev/null &
  local pid=$!
  local addr=""
  for _ in $(seq 1 100); do
    addr="$(grep -om1 '127.0.0.1:[0-9]*' "$tmpdir/serve-$workers.log" || true)"
    [ -n "$addr" ] && break
    sleep 0.1
  done
  if [ -z "$addr" ]; then
    echo "server smoke: daemon (workers $workers) never bound" >&2
    exit 1
  fi
  "$soak" --connect "$addr" --mixed 20 > "$out"
  kill -TERM "$pid"
  local rc=0
  wait "$pid" || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "server smoke: SIGTERM drain (workers $workers) exited $rc, want 0" >&2
    exit 1
  fi
  grep -q "drained" "$tmpdir/serve-$workers.log" || {
    echo "server smoke: no drain summary (workers $workers)" >&2
    exit 1
  }
}
serve_smoke 1 "$tmpdir/responses-w1.txt"
serve_smoke 8 "$tmpdir/responses-w8.txt"
cmp "$tmpdir/responses-w1.txt" "$tmpdir/responses-w8.txt"

echo "==> adversarial frontend smoke (deep nesting exits 2, a flat 20k-term sum checks)"
# Hostile program text gets one typed answer, never an abort (exit 134):
# 3,000 nested parentheses, 30,000 nested `if` blocks and 20,000 unary
# minuses exceed the parser's nesting budget and exit 2 with a syntax
# error; a flat 20,000-term sum is legal, unnested code and must end in
# a normal verdict (0 or 1).
rep() { awk -v n="$2" -v s="$1" 'BEGIN { for (i = 0; i < n; i++) printf "%s", s }'; }
hostile() {
  printf 'class Item { }\nclass Main {\n  static void main() {\n    int x = 0;\n    %s\n    @check while (nondet()) { Item it = new Item(); }\n  }\n}\n' \
    "$2" > "$tmpdir/hostile-$1.jml"
}
hostile parens "x = $(rep '(' 3000)1$(rep ')' 3000);"
hostile blocks "$(rep 'if (nondet()) { ' 30000)x = 1;$(rep '} ' 30000)"
hostile unary "x = $(rep '-' 20000)1;"
hostile sum "x = 1$(rep ' + 1' 20000);"
for name in parens blocks unary sum; do
  set +e
  "$leakc" check "$tmpdir/hostile-$name.jml" > "$tmpdir/hostile-$name.out" 2>&1
  rc=$?
  set -e
  case "$name:$rc" in
    sum:0 | sum:1) ;;
    sum:*)
      echo "adversarial smoke: the flat sum exited $rc, want a verdict (0 or 1)" >&2
      exit 1
      ;;
    *:2)
      grep -q 'nests deeper than' "$tmpdir/hostile-$name.out" || {
        echo "adversarial smoke: $name exited 2 without the nesting error" >&2
        exit 1
      }
      ;;
    *)
      echo "adversarial smoke: $name exited $rc, want 2" >&2
      exit 1
      ;;
  esac
done

echo "==> adversarial context smoke (fan-out k=8, n=7, r=2: exact LO/LS, bounded report)"
# Each C<i>.f allocates a C<i+1> and calls its f 8 times; the loop body
# calls C1.f twice, so the leaf's Item site has 2 * 8^6 contexts. The
# counts must be exact, the report must list a bounded sample, and the
# output must not depend on --jobs.
{
  printf 'class Item { }\nclass Holder { Item slot; }\n'
  for i in 1 2 3 4 5 6; do
    printf 'class C%d {\n  void f(Holder h) {\n    C%d c = new C%d();\n%s\n  }\n}\n' \
      "$i" "$((i + 1))" "$((i + 1))" "$(rep '    c.f(h);\n' 8)"
  done
  printf 'class C7 {\n  void f(Holder h) {\n    Item it = new Item();\n    h.slot = it;\n  }\n}\n'
  printf 'class Main {\n  static void main() {\n    Holder h = new Holder();\n    C1 c = new C1();\n'
  printf '    @check while (nondet()) {\n      c.f(h);\n      c.f(h);\n    }\n  }\n}\n'
} > "$tmpdir/fanout.jml"
for jobs in 1 8; do
  set +e
  "$leakc" check "$tmpdir/fanout.jml" --jobs "$jobs" > "$tmpdir/fanout-$jobs.out" 2>&1
  rc=$?
  set -e
  if [ "$rc" -ne 1 ]; then
    echo "context smoke: fan-out (jobs $jobs) exited $rc, want 1" >&2
    exit 1
  fi
  grep -q 'LO = 599186, LS = 524288 ' "$tmpdir/fanout-$jobs.out" || {
    echo "context smoke: fan-out (jobs $jobs) LO/LS are not 599186/524288" >&2
    exit 1
  }
  bytes="$(wc -c < "$tmpdir/fanout-$jobs.out")"
  if [ "$bytes" -ge 4096 ]; then
    echo "context smoke: fan-out (jobs $jobs) printed $bytes bytes, want < 4096" >&2
    exit 1
  fi
  # Drop the lines that carry wall-clock times.
  grep -v -e '^target ' -e '^  phases:' "$tmpdir/fanout-$jobs.out" > "$tmpdir/fanout-$jobs.txt"
done
cmp "$tmpdir/fanout-1.txt" "$tmpdir/fanout-8.txt"

echo "==> fleet chaos smoke (3 shards + router, kill -9 one shard mid-flight)"
# The byte-identical-under-chaos gate from DESIGN.md §14: a campaign
# through a 3-shard router with one shard kill -9'd mid-flight must
# produce exactly the bytes of the same campaign against a fault-free
# single-shard fleet, and the router must still drain cleanly (exit 0).
# --checks-only keeps health/stats out of the mix, since those frames
# legitimately describe the fleet shape.
wait_addr() {
  local log="$1" addr=""
  for _ in $(seq 1 100); do
    addr="$(grep -om1 '127.0.0.1:[0-9]*' "$log" 2>/dev/null || true)"
    [ -n "$addr" ] && break
    sleep 0.1
  done
  if [ -z "$addr" ]; then
    echo "fleet smoke: process never bound ($log)" >&2
    exit 1
  fi
  echo "$addr"
}
# Fault-free baseline: one shard behind a router.
"$leakc" serve --addr 127.0.0.1:0 --shard base \
  > "$tmpdir/fleet-base.log" 2>/dev/null &
base_pid=$!
"$leakc" route --shard "$(wait_addr "$tmpdir/fleet-base.log")" \
  > "$tmpdir/route-base.log" 2>/dev/null &
base_router_pid=$!
"$soak" --connect "$(wait_addr "$tmpdir/route-base.log")" \
  --mixed 60 --checks-only > "$tmpdir/fleet-baseline.txt"
kill -TERM "$base_router_pid" "$base_pid"
wait "$base_router_pid" "$base_pid" || {
  echo "fleet smoke: baseline router/shard did not drain cleanly" >&2
  exit 1
}
# Chaos run: three shards, one of them murdered mid-campaign.
shard_pids=()
shard_flags=()
for i in 0 1 2; do
  "$leakc" serve --addr 127.0.0.1:0 --shard "shard-$i" \
    > "$tmpdir/fleet-s$i.log" 2>/dev/null &
  shard_pids+=($!)
done
for i in 0 1 2; do
  shard_flags+=(--shard "$(wait_addr "$tmpdir/fleet-s$i.log")")
done
"$leakc" route "${shard_flags[@]}" > "$tmpdir/route-chaos.log" 2>/dev/null &
router_pid=$!
"$soak" --connect "$(wait_addr "$tmpdir/route-chaos.log")" \
  --mixed 60 --checks-only > "$tmpdir/fleet-chaos.txt" &
soak_pid=$!
sleep 0.3
kill -9 "${shard_pids[0]}" 2>/dev/null || true
wait "$soak_pid" || {
  echo "fleet smoke: soak campaign failed while a shard was down" >&2
  exit 1
}
cmp "$tmpdir/fleet-baseline.txt" "$tmpdir/fleet-chaos.txt"
kill -TERM "$router_pid"
rc=0
wait "$router_pid" || rc=$?
if [ "$rc" -ne 0 ]; then
  echo "fleet smoke: router exited $rc after chaos, want 0" >&2
  exit 1
fi
kill -TERM "${shard_pids[1]}" "${shard_pids[2]}"
wait "${shard_pids[1]}" "${shard_pids[2]}" || true
wait "${shard_pids[0]}" 2>/dev/null || true

echo "==> metrics scrape smoke (protocol verb + GET /metrics, strict parse)"
# Start a daemon with a metrics listener, drive the mixed workload, and
# strict-parse both expositions (HELP/TYPE discipline, histogram
# cumulativity, no duplicate series), requiring the core families to
# have moved.
"$leakc" serve --addr 127.0.0.1:0 --metrics-addr 127.0.0.1:0 --workers 2 \
  > "$tmpdir/serve-metrics.log" 2>/dev/null &
metrics_pid=$!
metrics_main="$(wait_addr "$tmpdir/serve-metrics.log")"
metrics_http=""
for _ in $(seq 1 100); do
  metrics_http="$(grep -om1 'metrics on 127\.0\.0\.1:[0-9]*' \
    "$tmpdir/serve-metrics.log" | grep -o '127.0.0.1:[0-9]*' || true)"
  [ -n "$metrics_http" ] && break
  sleep 0.1
done
if [ -z "$metrics_http" ]; then
  echo "metrics smoke: daemon never bound its metrics listener" >&2
  exit 1
fi
"$soak" --connect "$metrics_main" --mixed 20 > /dev/null
"$soak" --scrape "$metrics_main" --scrape-http "$metrics_http" \
  --require leakc_up:1 --require leakc_checks_total:1 \
  --require leakc_requests_served_total:1 > "$tmpdir/scrape.txt"
kill -TERM "$metrics_pid"
wait "$metrics_pid" || {
  echo "metrics smoke: daemon did not drain cleanly" >&2
  exit 1
}

echo "==> coalescing gate (4 identical campaigns, workers 1, byte-identical to --no-coalesce)"
# Baseline: one client runs the deterministic campaign against a
# coalescing-off single-worker daemon.
"$leakc" serve --addr 127.0.0.1:0 --no-coalesce --workers 1 \
  > "$tmpdir/serve-nocoalesce.log" 2>/dev/null &
nocoalesce_pid=$!
"$soak" --connect "$(wait_addr "$tmpdir/serve-nocoalesce.log")" \
  --mixed 30 --checks-only > "$tmpdir/coalesce-off.txt"
kill -TERM "$nocoalesce_pid"
wait "$nocoalesce_pid" || {
  echo "coalescing gate: baseline daemon did not drain cleanly" >&2
  exit 1
}
# Coalescing on: four clients race the identical campaign against one
# worker, so queued twins attach to one computation. Every client's
# response stream must byte-equal the coalescing-off baseline, and the
# daemon must report at least one coalesced twin. Whether any given
# round overlaps is scheduling luck, so the burst retries (the
# byte-identity invariant is asserted on every round regardless).
"$leakc" serve --addr 127.0.0.1:0 --workers 1 \
  > "$tmpdir/serve-coalesce.log" 2>/dev/null &
coalesce_pid=$!
coalesce_addr="$(wait_addr "$tmpdir/serve-coalesce.log")"
coalesced=0
for round in $(seq 1 10); do
  client_pids=()
  for c in 1 2 3 4; do
    "$soak" --connect "$coalesce_addr" --mixed 30 --checks-only \
      > "$tmpdir/coalesce-on-$c.txt" &
    client_pids+=($!)
  done
  for pid in "${client_pids[@]}"; do
    wait "$pid" || {
      echo "coalescing gate: campaign client failed (round $round)" >&2
      exit 1
    }
  done
  for c in 1 2 3 4; do
    cmp "$tmpdir/coalesce-off.txt" "$tmpdir/coalesce-on-$c.txt"
  done
  if "$soak" --scrape "$coalesce_addr" \
    --require leakc_requests_coalesced_total:1 > /dev/null 2>&1; then
    coalesced=1
    break
  fi
done
if [ "$coalesced" -ne 1 ]; then
  echo "coalescing gate: no request coalesced in 10 concurrent rounds" >&2
  exit 1
fi
kill -TERM "$coalesce_pid"
wait "$coalesce_pid" || {
  echo "coalescing gate: daemon did not drain cleanly" >&2
  exit 1
}

echo "==> fleet throughput gate (3 shards, coalescing on, mixed workload)"
# The in-process fleet campaign scrapes and strict-parses the router's
# aggregated exposition mid-soak. The >=100k req/s aggregate floor only
# holds with real parallelism, so (like the scale smoke's speedup
# floors) it is asserted only on machines with >= 8 cores.
cores="$(nproc 2>/dev/null || echo 1)"
if [ "$cores" -ge 8 ]; then
  cargo run -q --release --offline -p leakchecker-bench --bin soak -- \
    --fleet 3 --clients 8 --requests 400 --workers 4 --min-rps 100000
else
  echo "    (skipping >=100k req/s floor: $cores core(s); functional fleet pass only)"
  cargo run -q --release --offline -p leakchecker-bench --bin soak -- \
    --fleet 3 --clients 4 --requests 25 --workers 2
fi

echo "==> perfbench (build, unit tests, 5 s fleet-edit smoke)"
# The benchmark is a package of its own (perfbench/Cargo.toml, outside
# the workspace) that links the protocol codec, Router and Server, so
# nothing above builds it. The fleet-edit smoke drives a routed two-shard
# fleet and exits 0 only when every frame was judged correct.
cargo build -q --release --offline --manifest-path perfbench/Cargo.toml
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
  --workload fleet-edit --seed 0 --seconds 5 --trace 0

echo "==> witness determinism (--explain/--trace, jobs 1 vs 8, all exemplars)"
# Witness output is a pure function of the program: for every corpus
# exemplar the --explain render (modulo the timing header) and the
# --trace JSONL must be byte-identical at any jobs width. Witnesses are
# observation only: with its escape-chain and frontier lines (the lines
# indented four spaces) stripped, the --explain render — governance line
# included — must equal the plain check render, exit code included.
for exemplar in tests/corpus/*.jml; do
  name="$(basename "$exemplar" .jml)"
  for jobs in 1 8; do
    set +e
    "$leakc" check "$exemplar" --explain --jobs "$jobs" \
      --trace "$tmpdir/$name-j$jobs.jsonl" > "$tmpdir/$name-j$jobs.txt"
    rc=$?
    "$leakc" check "$exemplar" --jobs "$jobs" > "$tmpdir/$name-plain-j$jobs.txt"
    plain_rc=$?
    set -e
    if [ "$rc" -gt 3 ]; then
      echo "witness determinism: $exemplar (jobs $jobs) exited $rc" >&2
      exit 1
    fi
    if [ "$rc" -ne "$plain_rc" ]; then
      echo "witness independence: $exemplar (jobs $jobs) exited $rc with --explain, $plain_rc without" >&2
      exit 1
    fi
    # Drop wall-clock timings, the jobs count, and the per-run trace
    # path; everything else must match exactly.
    grep -v '^target \|^  phases:\|trace events written to' \
      "$tmpdir/$name-j$jobs.txt" > "$tmpdir/$name-j$jobs.norm"
    grep -v '^target \|^  phases:' \
      "$tmpdir/$name-plain-j$jobs.txt" > "$tmpdir/$name-plain-j$jobs.norm"
    grep -v '^    ' "$tmpdir/$name-j$jobs.norm" > "$tmpdir/$name-stripped-j$jobs.norm"
    cmp "$tmpdir/$name-plain-j$jobs.norm" "$tmpdir/$name-stripped-j$jobs.norm"
  done
  cmp "$tmpdir/$name-j1.norm" "$tmpdir/$name-j8.norm"
  cmp "$tmpdir/$name-j1.jsonl" "$tmpdir/$name-j8.jsonl"
done

echo "==> journal resume determinism (kill -9 mid-campaign, then --resume)"
# A campaign killed mid-flight and resumed from its journal must emit
# the same summary JSON as an uninterrupted run — at any jobs width.
fuzz_args="fuzz --seeds 48 --seed 11 --iterations 6"
$leakc $fuzz_args --jobs 1 --json "$tmpdir/full.json" >/dev/null
$leakc $fuzz_args --jobs 2 --journal "$tmpdir/campaign.journal" \
  >/dev/null 2>&1 &
fuzz_pid=$!
sleep 0.3
kill -9 "$fuzz_pid" 2>/dev/null || true
wait "$fuzz_pid" 2>/dev/null || true
set +e
$leakc $fuzz_args --jobs 8 --resume "$tmpdir/campaign.journal" \
  --json "$tmpdir/resumed.json" >/dev/null
rc=$?
set -e
if [ "$rc" -gt 1 ]; then
  echo "journal resume: resume run exited $rc" >&2
  exit 1
fi
cmp "$tmpdir/full.json" "$tmpdir/resumed.json"

echo "==> warm-vs-cold cache determinism (1-method edit, leakc level)"
# A cold `--cache` run, an analysis-invisible one-method edit, and the
# warm re-check must agree byte-for-byte with a cache-less run — same
# --json summary, same report lines (modulo timing/cache telemetry).
cat > "$tmpdir/incr.jml" <<'JML'
class Item { }
class Holder { Item item; }
class Main {
  static void main() {
    Holder h = new Holder();
    int pad = 1 + 2;
    @check while (nondet()) {
      Item it = new Item();
      h.item = it;
    }
  }
}
JML
norm_check() {
  grep -v '^target \|^  phases:\|^cache:\|^summary written to ' "$1" > "$2"
}
set +e
"$leakc" check "$tmpdir/incr.jml" --json "$tmpdir/incr-nocache.json" \
  > "$tmpdir/incr-nocache.txt"; rc_a=$?
"$leakc" check "$tmpdir/incr.jml" --cache "$tmpdir/cache" \
  --json "$tmpdir/incr-cold.json" > "$tmpdir/incr-cold.txt"; rc_b=$?
set -e
if [ "$rc_a" -ne 1 ] || [ "$rc_b" -ne 1 ]; then
  echo "cache determinism: cold runs exited $rc_a/$rc_b, want 1" >&2
  exit 1
fi
grep -q '1 misses' "$tmpdir/incr-cold.txt" || {
  echo "cache determinism: cold run did not count its miss" >&2
  exit 1
}
# The one-method edit, in place: new integer constants, same analysis
# semantics, same path (the --json summary embeds the file name).
sed 's/int pad = 1 + 2;/int pad = 7 + 9;/' "$tmpdir/incr.jml" \
  > "$tmpdir/incr-edited.jml"
cmp -s "$tmpdir/incr.jml" "$tmpdir/incr-edited.jml" && {
  echo "cache determinism: edit did not change the source" >&2
  exit 1
}
mv "$tmpdir/incr-edited.jml" "$tmpdir/incr.jml"
set +e
"$leakc" check "$tmpdir/incr.jml" --cache "$tmpdir/cache" \
  --json "$tmpdir/incr-warm.json" > "$tmpdir/incr-warm.txt"; rc_c=$?
set -e
if [ "$rc_c" -ne 1 ]; then
  echo "cache determinism: warm run exited $rc_c, want 1" >&2
  exit 1
fi
grep -q '(cached)' "$tmpdir/incr-warm.txt" || {
  echo "cache determinism: edited re-check did not replay warm" >&2
  exit 1
}
cmp "$tmpdir/incr-nocache.json" "$tmpdir/incr-cold.json"
cmp "$tmpdir/incr-nocache.json" "$tmpdir/incr-warm.json"
norm_check "$tmpdir/incr-nocache.txt" "$tmpdir/incr-nocache.norm"
norm_check "$tmpdir/incr-warm.txt" "$tmpdir/incr-warm.norm"
cmp "$tmpdir/incr-nocache.norm" "$tmpdir/incr-warm.norm"

echo "==> cache smoke (100k statements, warm >= 10x cold, byte-identical)"
# The incremental-analysis acceptance gate: seed the store cold, bump
# one integer constant in one stage method, and the warm re-check must
# hit, replay byte-identically at jobs 1 and 4, and beat cold by >= 10x.
cargo run -q --release --offline -p leakchecker-bench --bin cache_smoke -- \
  --stmts 100000 --jobs-list 1,4 --min-speedup 10

echo "==> cache chaos matrix (torn-cache / flip / trunc / compound)"
# The crash-safety gate: under every disk fault the store degrades to a
# miss — never a wrong answer — and the warm-path report byte-equals a
# cache-disabled run. Record 1 is the result record, records 2.. the
# method records (the digest record comes last), so the matrix covers
# payload rot, a torn method tail, a lost tail, and compound damage.
for plan in 'flip@1:40' 'torn-cache@2' 'trunc@1' 'flip@2:9,torn-cache@3'; do
  cargo run -q --release --offline -p leakchecker-bench --bin cache_smoke -- \
    --stmts 20000 --chaos "$plan"
done

echo "CI OK"
