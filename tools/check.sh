#!/usr/bin/env bash
# Build + test, then rebuild with ThreadSanitizer and re-run the tests that
# drive the fault-parallel execution layer — the race detector must be clean
# on the new parallel paths — with UBSan over the wide SIMD kernels, and
# with ASan over checkpoint parsing and resume (hostile files are refused)
# and over PairSim's undo trail under PODEM.
#
#   tools/check.sh              # full check (plain build + full ctest +
#                               # width sweep + TSan + UBSan + ASan)
#   tools/check.sh --tsan-only  # only the TSan build + concurrency tests
#   tools/check.sh --coverage   # only the gcov build + line-floor check on
#                               # src/fault and src/core (opt-in; slow -O0)
#
# Extra arguments after the flags are passed to both cmake configure steps.
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT="$PWD"

TSAN_ONLY=0
if [[ "${1:-}" == "--tsan-only" ]]; then
  TSAN_ONLY=1
  shift
fi

if [[ "${1:-}" == "--coverage" ]]; then
  shift
  # Line floors, percent.  Raise them as tests grow; never lower them to make
  # a regression pass.
  FAULT_FLOOR=85
  CORE_FLOOR=75
  cmake -B build-cov -S . -DFSCT_COVERAGE=ON -DCMAKE_BUILD_TYPE=Debug "$@"
  COV_TESTS=(fault_test dominance_test seq_fault_sim_test comb_fault_sim_test
             classify_test classify_multichain_test chain_reorder_test
             grouping_test reduced_atpg_test pipeline_test
             pipeline_options_test compaction_test diagnose_test
             test_export_test selfcheck_test report_test obs_test
             profile_test json_test parallel_test bench_harness_test)
  cmake --build build-cov -j --target "${COV_TESTS[@]}"
  for t in "${COV_TESTS[@]}"; do
    "./build-cov/tests/$t" --gtest_brief=1
  done
  COV_TMP="$(mktemp -d)"
  trap 'rm -rf "$COV_TMP"' EXIT
  (
    cd "$COV_TMP"
    find "$ROOT/build-cov/src/fault" "$ROOT/build-cov/src/core" \
      -name '*.gcda' -exec gcov {} + > /dev/null
  )
  python3 - "$COV_TMP" "$FAULT_FLOOR" "$CORE_FLOOR" <<'EOF'
import glob, os, sys
scratch, fault_floor, core_floor = sys.argv[1], float(sys.argv[2]), float(sys.argv[3])
floors = {"src/fault": fault_floor, "src/core": core_floor}
groups = {g: [0, 0] for g in floors}  # group -> [executable lines, hit lines]
for path in glob.glob(os.path.join(scratch, "*.gcov")):
    group = None
    with open(path) as f:
        for line in f:
            parts = line.split(":", 2)
            if len(parts) < 3:
                continue
            count, lineno = parts[0].strip(), parts[1].strip()
            if lineno == "0":
                if parts[2].startswith("Source:"):
                    src = parts[2][len("Source:"):].strip()
                    # Library .cpp files only: each is compiled exactly once,
                    # so same-named .gcov outputs never clobber real counts
                    # (headers show up per translation unit and are skipped).
                    if src.endswith(".cpp"):
                        group = next((g for g in floors if f"/{g}/" in src), None)
                continue
            if group is None or count == "-":
                continue
            groups[group][0] += 1
            if count not in ("#####", "====="):
                groups[group][1] += 1
fail = False
for g, (total, hit) in sorted(groups.items()):
    pct = 100.0 * hit / total if total else 0.0
    status = "OK" if pct >= floors[g] else "BELOW FLOOR"
    print(f"coverage {g}: {hit}/{total} lines = {pct:.1f}% "
          f"(floor {floors[g]:.0f}%) {status}")
    fail |= pct < floors[g]
if not any(total for total, _ in groups.values()):
    print("coverage: no .gcda data found — did the instrumented tests run?")
    fail = True
sys.exit(1 if fail else 0)
EOF
  echo "check.sh: coverage OK (gcov line floors hold)"
  exit 0
fi

# Tests that exercise the thread pool and every pool-driven phase (the obs
# registry records from every executor, so its tests belong in the TSan set;
# Bench. covers the heartbeat/status-dump monitor thread racing the pipeline;
# Serve. covers the daemon's reader/worker threads sharing the model cache;
# Shard. covers checkpointed runs, which like every observed run fold each
# step-3 item's private registry into the run's on the skeleton thread while
# other items still run; LocalExec. covers step-2 verification, whose pair
# waves the skeleton thread dispatches on the pool).
CONCURRENCY_TESTS='Parallel\.|Determinism\.|Obs\.|Selfcheck\.|Bench\.|Serve\.|Shard\.|LocalExec\.'

# One configuration on every path: ATPG is bounded by backtrack budgets only,
# so nothing in src or tools may name the retired wall-clock budget.  The one
# exception is the three inert PipelineOptions fields kept for old callers.
# (The bracketed characters keep these patterns from matching their own lines.)
BUDGET_REFS=$(grep -rnE \
    'hit_time[_]limit|PodemTimeLimit[H]its|podem_time_limit[_]hits|time_limit[_]ms' \
    src tools |
  grep -vE '^src/core/pipeline\.h:[0-9]+:  int (comb|seq|final)_time_limit[_]ms = 0;$' ||
  true)
if [[ -n "$BUDGET_REFS" ]]; then
  echo "check.sh: the retired wall-clock ATPG budget is referenced:"
  echo "$BUDGET_REFS"
  exit 1
fi

if [[ "$TSAN_ONLY" == 0 ]]; then
  cmake -B build -S . "$@"
  cmake --build build -j
  ctest --test-dir build --output-on-failure -j "$(nproc)"

  # Observability smoke: a real CLI run must emit parseable trace/metrics JSON.
  OBS_TMP="$(mktemp -d)"
  trap 'rm -rf "$OBS_TMP"' EXIT
  cat > "$OBS_TMP/s27.bench" <<'EOF'
# ISCAS'89 s27
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NAND(G2, G12)
EOF
  ./build/tools/fsct test "$OBS_TMP/s27.bench" --jobs 2 -v \
    --trace "$OBS_TMP/trace.json" --metrics "$OBS_TMP/metrics.json" \
    --trace-max-mb 64 --profile "$OBS_TMP/profile.json" \
    --folded "$OBS_TMP/profile.folded" --metrics-out "$OBS_TMP/metrics.prom"
  python3 -m json.tool "$OBS_TMP/trace.json" > /dev/null
  python3 -m json.tool "$OBS_TMP/metrics.json" > /dev/null
  python3 -m json.tool "$OBS_TMP/profile.json" > /dev/null
  python3 tools/promtext_lint.py "$OBS_TMP/metrics.prom"
  # The saved profile and the run report's attribution section both render.
  ./build/tools/fsct profile "$OBS_TMP/profile.json" > /dev/null
  ./build/tools/fsct profile "$OBS_TMP/metrics.json" --top 5 > /dev/null
  echo "check.sh: observability smoke OK (trace/metrics/profile JSON parse," \
       "OpenMetrics lint, profile render)"

  # Differential fuzz smoke: a fixed-seed sweep of the seven default
  # selfcheck oracles plus a replay of the checked-in minimized corpus (see
  # core/selfcheck.h), then a shorter sweep of the opt-in O8 resume oracle
  # (stop at a random safe point, resume at --jobs 2, diff against serial).
  ./build/tools/fsct fuzz --seed 1 --iters 100 -o "$OBS_TMP/fuzz"
  ./build/tools/fsct fuzz --corpus tests/integration/fuzz_corpus
  ./build/tools/fsct fuzz --seed 1 --iters 25 --oracles resume --jobs 2
  echo "check.sh: fuzz smoke OK (100 default + 25 resume iterations" \
       "+ corpus replay)"

  # Bench smoke: run the smallest suite circuit through the statistics-aware
  # harness, check the document parses, and self-compare (must be exit 0 —
  # the noise model has to accept a document against itself).
  ./build/tools/fsct bench run s1488 --reps 2 --warmup 0 --jobs 1 \
    --label smoke -o "$OBS_TMP/bench_smoke.json"
  python3 -m json.tool "$OBS_TMP/bench_smoke.json" > /dev/null
  ./build/tools/fsct bench compare "$OBS_TMP/bench_smoke.json" \
    "$OBS_TMP/bench_smoke.json"
  echo "check.sh: bench smoke OK (run + JSON parse + self-compare)"

  # Attribution overhead gate: the per-fault ledger must stay inside the
  # compare harness's noise window (max(rel, 3*MAD, 5ms floor)) — the
  # null-sink rule says observation never becomes the workload.
  ./build/tools/fsct bench run s1488 --reps 3 --warmup 1 --jobs 2 \
    --label attr-off -o "$OBS_TMP/bench_attr_off.json"
  ./build/tools/fsct bench run s1488 --reps 3 --warmup 1 --jobs 2 \
    --attribution --label attr-on -o "$OBS_TMP/bench_attr_on.json"
  ./build/tools/fsct bench compare "$OBS_TMP/bench_attr_off.json" \
    "$OBS_TMP/bench_attr_on.json"
  echo "check.sh: attribution overhead gate OK (ledger within noise)"

  # Width sweep: the full pipeline at every SIMD lane width must produce an
  # identical run report (timings and RSS stripped — wider lanes legitimately
  # use more memory; only results and deterministic counters are compared).
  cat > "$OBS_TMP/strip.py" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
def strip(o):
    if isinstance(o, dict):
        # Mirror of normalized_report() in src/serve/serve.cpp: volatile
        # substrings plus the per-run stamps ("serve" request_id, "pool"
        # sizing) that legitimately vary across runs.
        return {k: strip(v) for k, v in sorted(o.items())
                if "seconds" not in k and "time" not in k and "passes" not in k
                and "cycles" not in k and "rss" not in k
                and k not in ("serve", "pool")}
    if isinstance(o, list):
        return [strip(v) for v in o]
    return o
json.dump(strip(doc), open(sys.argv[2], "w"), indent=1)
EOF
  for W in 64 256 512; do
    ./build/tools/fsct test "$OBS_TMP/s27.bench" --jobs 1 --simd-width "$W" \
      --metrics "$OBS_TMP/metrics_w$W.json" > /dev/null
    python3 "$OBS_TMP/strip.py" "$OBS_TMP/metrics_w$W.json" \
      "$OBS_TMP/metrics_w$W.norm"
  done
  cmp "$OBS_TMP/metrics_w64.norm" "$OBS_TMP/metrics_w256.norm"
  cmp "$OBS_TMP/metrics_w64.norm" "$OBS_TMP/metrics_w512.norm"
  # The exported chain test program is part of the result: it must be
  # byte-identical at every lane width and job count, and replay clean on the
  # scanned netlist shipped beside it.  (s1423 exits 1 by design: one fault
  # stays undetected at these budgets.)
  for C in "$OBS_TMP/s27.bench" s1423; do
    N="$(basename "$C" .bench)"
    for W in 64 256 512; do
      for J in 1 2; do
        ./build/tools/fsct test "$C" --jobs "$J" --simd-width "$W" \
          -o "$OBS_TMP/prog_${N}_w${W}_j${J}.fsct" > /dev/null || [[ $? == 1 ]]
        cmp "$OBS_TMP/prog_${N}_w64_j1.fsct" "$OBS_TMP/prog_${N}_w${W}_j${J}.fsct"
      done
    done
    [[ "$(./build/tools/fsct replay "$OBS_TMP/prog_${N}_w64_j1.fsct" \
          "$OBS_TMP/prog_${N}_w64_j1.fsct.bench")" == *PASS ]]
  done
  echo "check.sh: width sweep OK (identical run reports at 64/256/512," \
       "identical programs at 64/256/512 x jobs 1/2, replay PASS)"

  # Serve smoke: the daemon must serve the same normalized run report as the
  # CLI (the serve determinism contract, DESIGN.md §5j), answer a repeated
  # request from its result cache, expose its observability plane (GET
  # /metrics, /healthz, /readyz, /statusz + the NDJSON request log), and
  # drain cleanly on SIGTERM.
  ./build/tools/fsct serve --socket "$OBS_TMP/serve.sock" --http-port 0 \
    --request-log "$OBS_TMP/requests.ndjson" > "$OBS_TMP/serve.log" &
  SERVE_PID=$!
  for _ in $(seq 50); do [[ -S "$OBS_TMP/serve.sock" ]] && break; sleep 0.1; done
  HTTP_PORT="$(python3 - "$OBS_TMP/serve.log" <<'EOF'
import re, sys, time
for _ in range(50):
    m = re.search(r"metrics on 127\.0\.0\.1:(\d+)", open(sys.argv[1]).read())
    if m:
        print(m.group(1))
        break
    time.sleep(0.1)
else:
    sys.exit("serve smoke: no metrics port announced in serve.log")
EOF
)"
  python3 - "$OBS_TMP" <<'EOF'
import json, socket, sys
tmp = sys.argv[1]
bench = open(tmp + "/s27.bench").read()
s = socket.socket(socket.AF_UNIX)
s.connect(tmp + "/serve.sock")
f = s.makefile("r")
def ask(rid):
    s.sendall((json.dumps({"id": rid, "circuit": bench,
                           "config": {"jobs": 1}}) + "\n").encode())
    while True:
        ev = json.loads(f.readline())
        if ev.get("event") == "result":
            return ev
r1 = ask("smoke1")
assert r1["status"] == "ok", r1
r2 = ask("smoke2")
assert r2["status"] == "ok", r2
assert r2["result_cache"] == "hit", r2
# The replay is verbatim apart from the per-response serve stamp: each
# response carries its own server-assigned request_id.
def unstamped(report):
    return {k: v for k, v in report.items() if k != "serve"}
assert unstamped(r1["report"]) == unstamped(r2["report"])
assert r1["report"]["serve"]["request_id"] != r2["report"]["serve"]["request_id"]
assert r1["request_id"] == r1["report"]["serve"]["request_id"], r1
json.dump(r1["report"], open(tmp + "/served.json", "w"))
s.close()
EOF
  # Scrape the live daemon's observability plane and hold the page to the
  # same OpenMetrics rules as the CLI exposition (plus the histogram
  # invariants a scraper depends on: cumulative le buckets ending at +Inf).
  python3 - "$OBS_TMP" "$HTTP_PORT" <<'EOF'
import http.client, json, re, sys
tmp, port = sys.argv[1], int(sys.argv[2])
def get(path):
    c = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    c.request("GET", path)
    r = c.getresponse()
    body = r.read().decode()
    c.close()
    return r.status, body
st, _ = get("/healthz"); assert st == 200, st
st, _ = get("/readyz"); assert st == 200, st
st, body = get("/statusz"); assert st == 200, st
doc = json.loads(body)
assert len(doc["recent"]) == 2, doc
assert doc["active_sessions"] == [], doc
st, body = get("/metrics"); assert st == 200, st
open(tmp + "/daemon_metrics.prom", "w").write(body)
assert body.endswith("# EOF\n"), body[-80:]
for name in ("fsct_serve_uptime_seconds", "fsct_serve_requests_total",
             "fsct_serve_result_cache_hits_total",
             "fsct_serve_latency_pipeline_us_bucket",
             "fsct_classify_faults_total"):
    assert name in body, name
hists = {}
for line in body.splitlines():
    m = re.match(r'(\w+)_bucket\{le="([^"]+)"\} (\d+)', line)
    if m:
        hists.setdefault(m.group(1), []).append((m.group(2), int(m.group(3))))
assert hists, "no histogram buckets in /metrics"
for fam, buckets in hists.items():
    counts = [c for _, c in buckets]
    assert counts == sorted(counts), (fam, "buckets not cumulative")
    assert buckets[-1][0] == "+Inf", (fam, "missing +Inf bucket")
st, _ = get("/nope"); assert st == 404, st
EOF
  python3 tools/promtext_lint.py "$OBS_TMP/daemon_metrics.prom"
  # `fsct stat` renders a one-screen status against the same live daemon.
  ./build/tools/fsct stat --port "$HTTP_PORT" > "$OBS_TMP/stat.out"
  grep -q "fsct daemon: up" "$OBS_TMP/stat.out"
  grep -q "requests 2: 2 ok" "$OBS_TMP/stat.out"
  grep -q "latency p50/p90/p99" "$OBS_TMP/stat.out"
  kill -TERM "$SERVE_PID"
  wait "$SERVE_PID"
  # The request log is one well-formed NDJSON record per request, in order,
  # with the phase latencies and cache outcomes the daemon reported.
  python3 - "$OBS_TMP/requests.ndjson" <<'EOF'
import json, sys
recs = [json.loads(l) for l in open(sys.argv[1])]
assert [r["request_id"] for r in recs] == [1, 2], recs
assert recs[0]["result_cache"] == "miss" and recs[1]["result_cache"] == "hit"
for r in recs:
    assert r["status"] == "ok", r
    for k in ("id", "circuit", "priority", "model_cache",
              "queue_us", "compile_us", "pipeline_us", "serialize_us"):
        assert k in r, (k, r)
EOF
  python3 "$OBS_TMP/strip.py" "$OBS_TMP/served.json" "$OBS_TMP/served.norm"
  cmp "$OBS_TMP/served.norm" "$OBS_TMP/metrics_w64.norm"
  echo "check.sh: serve smoke OK (served report identical to CLI," \
       "result-cache hit, /metrics lint, fsct stat, request log," \
       "SIGTERM drain)"

  # Observability overhead gate: a daemon carrying the full plane (request
  # log + a scraper hitting /metrics after every request) must serve inside
  # the bench harness's noise window (max(rel, 3*MAD, 5ms floor)) of a plain
  # daemon — the null-sink rule extends to the serve path.
  cat > "$OBS_TMP/serve_bench.py" <<'EOF'
import http.client, json, socket, sys, time
tmp, sock_path, out, label = sys.argv[1:5]
port = int(sys.argv[5]) if len(sys.argv) > 5 else -1
bench = open(tmp + "/s27.bench").read()
s = socket.socket(socket.AF_UNIX)
s.connect(sock_path)
f = s.makefile("r")
walls = []
for i in range(6):  # 1 warmup + 5 measured
    t0 = time.monotonic()
    s.sendall((json.dumps({"id": "%s%d" % (label, i), "circuit": bench,
                           "use_result_cache": False,
                           "config": {"jobs": 1}}) + "\n").encode())
    while True:
        ev = json.loads(f.readline())
        if ev.get("event") == "result":
            break
    assert ev["status"] == "ok", ev
    if i:
        walls.append(time.monotonic() - t0)
    if port > 0:
        c = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        c.request("GET", "/metrics")
        assert c.getresponse().read().endswith(b"# EOF\n")
        c.close()
s.close()
walls.sort()
doc = {"schema": "fsct-bench-v2",
       "rows": [{"circuit": "s27",
                 "phases": [{"name": "serve_request",
                             "wall": {"median": walls[len(walls) // 2]}}]}]}
json.dump(doc, open(out, "w"))
EOF
  ./build/tools/fsct serve --socket "$OBS_TMP/plain.sock" \
    > "$OBS_TMP/plain.log" &
  PLAIN_PID=$!
  for _ in $(seq 50); do [[ -S "$OBS_TMP/plain.sock" ]] && break; sleep 0.1; done
  python3 "$OBS_TMP/serve_bench.py" "$OBS_TMP" "$OBS_TMP/plain.sock" \
    "$OBS_TMP/bench_obs_off.json" plain
  kill -TERM "$PLAIN_PID"; wait "$PLAIN_PID"
  ./build/tools/fsct serve --socket "$OBS_TMP/instr.sock" --http-port 0 \
    --request-log "$OBS_TMP/instr_requests.ndjson" > "$OBS_TMP/instr.log" &
  INSTR_PID=$!
  for _ in $(seq 50); do [[ -S "$OBS_TMP/instr.sock" ]] && break; sleep 0.1; done
  INSTR_PORT="$(sed -n 's/.*metrics on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
    "$OBS_TMP/instr.log" | head -1)"
  python3 "$OBS_TMP/serve_bench.py" "$OBS_TMP" "$OBS_TMP/instr.sock" \
    "$OBS_TMP/bench_obs_on.json" instr "$INSTR_PORT"
  kill -TERM "$INSTR_PID"; wait "$INSTR_PID"
  ./build/tools/fsct bench compare "$OBS_TMP/bench_obs_off.json" \
    "$OBS_TMP/bench_obs_on.json"
  echo "check.sh: observability overhead gate OK (request log + scraping" \
       "within noise)"

  # Checkpoint smoke (DESIGN.md §5l): a checkpointing s1423 run is
  # interrupted inside step 3 (a test-only failpoint widens the window) and
  # the --resume continuation's normalized report must be byte-identical to
  # a plain uninterrupted CLI run.  SIGTERM stops cooperatively at the next
  # safe point (exit 3, resume hint); SIGKILL of the whole process leaves
  # only the last checkpoint written.  Neither may leave a report behind.
  # (s1423 exits 1 by design: one fault stays undetected at these budgets.)
  ./build/tools/fsct test s1423 --jobs 2 \
    --metrics "$OBS_TMP/ckpt_plain.json" > /dev/null || [[ $? == 1 ]]
  python3 "$OBS_TMP/strip.py" "$OBS_TMP/ckpt_plain.json" \
    "$OBS_TMP/ckpt_plain.norm"
  # interrupt_and_resume SIGNAL FAILPOINT EXPECTED_EXIT
  interrupt_and_resume() {
    local ck="$OBS_TMP/$1.ckpt" out="$OBS_TMP/$1.json" pid rc=0
    FSCT_TEST_PHASE_SLEEP="$2" ./build/tools/fsct test s1423 --jobs 2 \
      --checkpoint "$ck" --metrics "$out" > /dev/null 2> "$OBS_TMP/$1.err" &
    pid=$!
    for _ in $(seq 300); do
      head -n 1 "$ck" 2> /dev/null | grep -q '"phase":"s3.groups"' && break
      sleep 0.1
    done
    kill "-$1" "$pid"
    wait "$pid" || rc=$?
    [[ "$rc" == "$3" && ! -f "$out" ]]
    ./build/tools/fsct test s1423 --jobs 2 --resume "$ck" \
      --metrics "$out" > /dev/null || [[ $? == 1 ]]
    python3 "$OBS_TMP/strip.py" "$out" "$OBS_TMP/$1.norm"
    cmp "$OBS_TMP/ckpt_plain.norm" "$OBS_TMP/$1.norm"
  }
  interrupt_and_resume TERM s3:2500 3
  grep -q -- "--resume" "$OBS_TMP/TERM.err"
  interrupt_and_resume KILL s3.group:1500 137
  # A checkpointing run takes the same step-3 item path as a plain run, so
  # even the pass and cycle counters the normalization drops must agree.
  ./build/tools/fsct test s1494 --jobs 2 --metrics "$OBS_TMP/s1494_plain.json" \
    > /dev/null
  ./build/tools/fsct test s1494 --jobs 2 --metrics "$OBS_TMP/s1494_ckpt.json" \
    --checkpoint "$OBS_TMP/s1494.ckpt" > /dev/null
  python3 -c 'import json, sys
a, b = (json.load(open(f))["counters"] for f in sys.argv[1:])
sys.exit(a != b)' "$OBS_TMP/s1494_plain.json" "$OBS_TMP/s1494_ckpt.json"
  echo "check.sh: checkpoint smoke OK (SIGTERM and SIGKILL -> resume" \
       "identical to an uninterrupted run; raw counters of a checkpointed" \
       "run equal a plain run's)"

  # Counter determinism across job counts: step-2 verification plans its
  # pair waves by a fixed constant, never by --jobs, so even the pass and
  # cycle counters the normalization drops must agree at jobs 1 and 4.
  for J in 1 4; do
    ./build/tools/fsct test s9234 --jobs "$J" \
      --metrics "$OBS_TMP/s9234_j$J.json" > /dev/null
  done
  python3 -c 'import json, sys
a, b = (json.load(open(f))["counters"] for f in sys.argv[1:])
sys.exit(a != b)' "$OBS_TMP/s9234_j1.json" "$OBS_TMP/s9234_j4.json"
  echo "check.sh: counter determinism OK (s9234 raw counters identical at" \
       "jobs 1 and 4)"

  # Checkpoint overhead gate: periodic checkpointing (at most one write per
  # second, a safe-point hook on the one step-3 item path) has to land
  # inside the bench harness's noise window of a plain run.
  cat > "$OBS_TMP/ckpt_bench.py" <<'EOF'
import json, subprocess, sys, time
fsct, out, extra = sys.argv[1], sys.argv[2], sys.argv[3:]
walls = []
for i in range(8):  # 2 warmup + 6 measured
    t0 = time.monotonic()
    subprocess.run([fsct, "test", "s1494", "--jobs", "2"] + extra,
                   check=True, stdout=subprocess.DEVNULL)
    walls.append(time.monotonic() - t0)
median = sorted(walls[2:])[3]
json.dump({"schema": "fsct-bench-v2", "rows": [{"circuit": "s1494",
           "phases": [{"name": "fsct_test", "wall": {"median": median}}]}]},
          open(out, "w"))
EOF
  python3 "$OBS_TMP/ckpt_bench.py" ./build/tools/fsct \
    "$OBS_TMP/bench_ckpt_off.json"
  python3 "$OBS_TMP/ckpt_bench.py" ./build/tools/fsct \
    "$OBS_TMP/bench_ckpt_on.json" \
    --checkpoint "$OBS_TMP/gate.ckpt" --checkpoint-interval 1000
  ./build/tools/fsct bench compare "$OBS_TMP/bench_ckpt_off.json" \
    "$OBS_TMP/bench_ckpt_on.json"
  echo "check.sh: checkpoint overhead gate OK (--checkpoint within noise" \
       "of a plain run)"
fi

cmake -B build-tsan -S . -DFSCT_SANITIZE=thread "$@"
cmake --build build-tsan -j \
  --target parallel_test determinism_test pipeline_test \
           seq_fault_sim_test comb_fault_sim_test classify_test obs_test \
           selfcheck_test bench_harness_test serve_test checkpoint_test
TSAN_OPTIONS="halt_on_error=1" ctest --test-dir build-tsan \
  --output-on-failure -R "$CONCURRENCY_TESTS"

if [[ "$TSAN_ONLY" == 0 ]]; then
  # UBSan over the new SoA/wide kernels: the multi-word lane types lean on
  # alignas + fixed-trip-count word loops, so shifts, alignment and aliasing
  # must be provably clean at every width.  PPSFP (CombFaultSim.) and the
  # 64-lane engine tests (PackedCombSim.) run on the same lane code.
  cmake -B build-ubsan -S . -DFSCT_SANITIZE=undefined "$@"
  cmake --build build-ubsan -j \
    --target soa_sim_test seq_fault_sim_test pair_sim_test podem_test \
             test_export_test comb_sim_test comb_fault_sim_test
  UBSAN_OPTIONS="halt_on_error=1" ctest --test-dir build-ubsan \
    --output-on-failure -R 'SoaCircuit\.|WideSim\.|WideSeqSim\.|SimdWidth\.|SeqFaultSim\.|PairSim\.|Podem\.|TestExport\.|CombFaultSim\.|PackedCombSim\.'
  echo "check.sh: UBSan clean over the SoA/wide kernels"

  # ASan over checkpoint parsing and resume, and over PairSim's undo trail
  # (trail marks and the level bitmap are index arithmetic on hot paths).
  cmake -B build-asan -S . -DFSCT_SANITIZE=address "$@"
  cmake --build build-asan -j --target checkpoint_test fsct pair_sim_test \
    podem_test golden_test
  ASAN_OPTIONS="halt_on_error=1" ctest --test-dir build-asan -j "$(nproc)" \
    --output-on-failure -R 'Shard\.|fsct_cli_edge|PairSim\.|Podem\.|Golden\.S4863'
  echo "check.sh: ASan clean over checkpoint parse/resume and PairSim/PODEM"
fi
echo "check.sh: OK (plain tests $( [[ $TSAN_ONLY == 1 ]] && echo skipped || echo passed ), TSan clean)"
