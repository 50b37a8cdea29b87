#!/usr/bin/env bash
# CLI edge cases: bad numeric operands, missing operands, unknown options,
# malformed input files.  Every case must fail with exit code 2 and a
# specific message on stderr — never exit 0, never crash, never print the
# error to stdout.  Usage: cli_edge_test.sh <path-to-fsct>
set -u

FSCT=${1:?usage: cli_edge_test.sh <path-to-fsct>}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
FAILURES=0

# expect_fail <expected-exit> <stderr-pattern> -- <args...>
expect_fail() {
  local want_code=$1 pattern=$2
  shift 3
  local out err code
  out=$("$FSCT" "$@" 2>"$TMP/err")
  code=$?
  err=$(cat "$TMP/err")
  if [[ $code -ne $want_code ]]; then
    echo "FAIL: fsct $* -> exit $code, want $want_code"
    FAILURES=$((FAILURES + 1))
  elif ! grep -q "$pattern" "$TMP/err"; then
    echo "FAIL: fsct $* -> stderr missing /$pattern/: $err"
    FAILURES=$((FAILURES + 1))
  elif [[ -n "$out" && $want_code -eq 2 ]]; then
    echo "FAIL: fsct $* -> error case wrote to stdout: $out"
    FAILURES=$((FAILURES + 1))
  else
    echo "ok: fsct $* -> $code, '$err'"
  fi
}

cat > "$TMP/good.bench" <<'EOF'
INPUT(a)
INPUT(b)
OUTPUT(g)
f = DFF(g)
g = AND(a, b)
EOF

# --- numeric operand validation ------------------------------------------
expect_fail 2 "invalid integer 'banana'" -- test "$TMP/good.bench" --jobs banana
expect_fail 2 "invalid integer '1x'"     -- test "$TMP/good.bench" --jobs 1x
expect_fail 2 "out of range"             -- test "$TMP/good.bench" --jobs -1
expect_fail 2 "out of range"             -- scan "$TMP/good.bench" --chains 0
expect_fail 2 "out of range"             -- scan "$TMP/good.bench" --partial -1
expect_fail 2 "out of range"             -- scan "$TMP/good.bench" --partial 1001
expect_fail 2 "out of range"             -- scan "$TMP/good.bench" --partial 99999999999999999999
expect_fail 2 "invalid integer"          -- replay x y --fault net two

# --- missing operands ------------------------------------------------------
expect_fail 2 "requires a value" -- test "$TMP/good.bench" --jobs
expect_fail 2 "requires a value" -- scan "$TMP/good.bench" -o
expect_fail 2 "requires a value" -- fuzz --seed
expect_fail 2 "missing <circuit.bench> operand" -- stats
expect_fail 2 "missing <circuit.bench> operand" -- replay prog.fsct

# --- unknown options / commands -------------------------------------------
expect_fail 2 "unknown option '--frobnicate'" -- test "$TMP/good.bench" --frobnicate
expect_fail 2 "unknown command" -- frobnicate
expect_fail 2 "unknown oracle 'bogus'" -- fuzz --iters 1 --oracles bogus
expect_fail 2 "unknown oracle 'shard'" -- fuzz --iters 1 --oracles shard
expect_fail 2 "unknown option '--shards'" -- test "$TMP/good.bench" --shards 2

# --- missing / malformed files ---------------------------------------------
expect_fail 2 "cannot open" -- stats "$TMP/does_not_exist.bench"

cat > "$TMP/badgate.bench" <<'EOF'
INPUT(a)
OUTPUT(g)
g = FROB(a)
EOF
expect_fail 2 "line 3: unknown gate type 'FROB'" -- stats "$TMP/badgate.bench"

cat > "$TMP/dup.bench" <<'EOF'
INPUT(a)
INPUT(a)
OUTPUT(a)
EOF
expect_fail 2 "line 2: redefinition of 'a' (first defined at line 1)" -- stats "$TMP/dup.bench"

cat > "$TMP/dupgate.bench" <<'EOF'
INPUT(a)
OUTPUT(g)
g = NOT(a)
g = AND(a, a)
EOF
expect_fail 2 "line 4: redefinition of 'g'" -- stats "$TMP/dupgate.bench"

cat > "$TMP/undriven.bench" <<'EOF'
INPUT(a)
OUTPUT(ghost)
g = NOT(a)
EOF
expect_fail 2 "line 2: OUTPUT(ghost) references undefined signal" -- stats "$TMP/undriven.bench"

cat > "$TMP/undef_fanin.bench" <<'EOF'
INPUT(a)
OUTPUT(g)
g = AND(a, nosuch)
EOF
expect_fail 2 "line 3: undefined signal 'nosuch'" -- stats "$TMP/undef_fanin.bench"

cat > "$TMP/badmux.bench" <<'EOF'
INPUT(a)
OUTPUT(g)
g = MUX(a)
EOF
expect_fail 2 "line 3: bad fanin count" -- stats "$TMP/badmux.bench"

# A gate wider than the simulators' 64-fanin bound is refused at parse time
# (exit 2, not a crash in the scalar simulator during scan insertion).
for gate in XOR AND; do
  {
    for i in $(seq 0 64); do echo "INPUT(i$i)"; done
    echo "OUTPUT(g)"
    echo "f = DFF(g)"
    echo "g = $gate($(seq -s ', ' -f 'i%g' 0 64))"
  } > "$TMP/wide.bench"
  expect_fail 2 "bad fanin count for $gate g: 65 fanins" -- test "$TMP/wide.bench"
done

cat > "$TMP/badprog.fsct" <<'EOF'
FSCT-TEST 1
circuit c
inputs a b
observe g
cycles 12abc
EOF
expect_fail 2 "line 5: invalid cycle count '12abc'" -- replay "$TMP/badprog.fsct" "$TMP/good.bench"

# --- unusable checkpoints ---------------------------------------------------
# A refused --resume exits 2 before the pipeline runs, so no report is
# written.
# expect_no_report <path>
expect_no_report() {
  if [[ -e "$1" ]]; then
    echo "FAIL: a refused resume wrote a report: $1"
    FAILURES=$((FAILURES + 1))
    rm -f "$1"
  fi
}
cat > "$TMP/other.bench" <<'EOF'
INPUT(a)
INPUT(b)
OUTPUT(g)
f = DFF(g)
g = OR(a, f)
EOF
"$FSCT" test "$TMP/good.bench" --jobs 1 --checkpoint "$TMP/good.ckpt" \
  >/dev/null 2>&1
head -n 3 "$TMP/good.ckpt" > "$TMP/truncated.ckpt"
expect_fail 2 "cannot open checkpoint" -- test "$TMP/good.bench" \
  --resume "$TMP/missing.ckpt" --metrics "$TMP/report.json"
expect_no_report "$TMP/report.json"
expect_fail 2 "checkpoint is truncated" -- test "$TMP/good.bench" \
  --resume "$TMP/truncated.ckpt" --metrics "$TMP/report.json"
expect_no_report "$TMP/report.json"
expect_fail 2 "binding hash mismatch" -- test "$TMP/other.bench" \
  --resume "$TMP/good.ckpt" --metrics "$TMP/report.json"
expect_no_report "$TMP/report.json"
# The hash binds the circuit and options, not the contents: a fault located
# on a chain the design does not have is refused before any phase runs.
sed -E '3s/\[([0-9]),([01]),\[0,/[\1,\2,[99,/' "$TMP/good.ckpt" \
  > "$TMP/tampered.ckpt"
expect_fail 2 "resume: checkpoint chain location outside" -- test \
  "$TMP/good.bench" --resume "$TMP/tampered.ckpt" --metrics "$TMP/report.json"
expect_no_report "$TMP/report.json"

# --- bench subcommand -------------------------------------------------------
expect_fail 2 "invalid label"            -- bench run s1488 --label "bad label"
expect_fail 2 "invalid label"            -- bench run s1488 --label "a/b"
expect_fail 2 "unknown bench subcommand" -- bench frobnicate
expect_fail 2 "missing <run|compare> operand" -- bench
expect_fail 2 "missing <old.json> operand"    -- bench compare
expect_fail 2 "missing <new.json> operand"    -- bench compare old.json
expect_fail 2 "invalid integer"          -- bench run --jobs 1,x
expect_fail 2 "invalid number"           -- bench compare a b --mad-k soft
expect_fail 2 "cannot open"              -- bench compare "$TMP/no.json" "$TMP/no.json"

cat > "$TMP/broken.json" <<'EOF'
{
  "schema": "fsct-bench-v2",
  "rows": [
    {"circuit": "s1488", oops}
  ]
}
EOF
expect_fail 2 "line 4:" -- bench compare "$TMP/broken.json" "$TMP/broken.json"

cat > "$TMP/otherschema.json" <<'EOF'
{
  "schema": "some-other-format",
  "rows": []
}
EOF
expect_fail 2 "line 2: unsupported bench schema" -- bench compare "$TMP/otherschema.json" "$TMP/otherschema.json"

cat > "$TMP/notbench.json" <<'EOF'
{
  "hello": "world"
}
EOF
expect_fail 2 "not a bench document" -- bench compare "$TMP/notbench.json" "$TMP/notbench.json"

# --- happy paths still work ------------------------------------------------
if ! "$FSCT" stats "$TMP/good.bench" >/dev/null 2>&1; then
  echo "FAIL: fsct stats on a good circuit should succeed"
  FAILURES=$((FAILURES + 1))
fi
if ! "$FSCT" fuzz --seed 1 --iters 3 -o "$TMP/fz" >/dev/null 2>&1; then
  echo "FAIL: fsct fuzz smoke should succeed"
  FAILURES=$((FAILURES + 1))
fi
# A suite name screens the suite entry's design: s3330 has 2 chains, so the
# default and an explicit --chains 2 print the same summary (the "jobs:"
# line carries wall times and is dropped).
"$FSCT" test s3330 --jobs 1 2>&1 | grep -v '^jobs:' > "$TMP/suite_default.txt"
"$FSCT" test s3330 --chains 2 --jobs 1 2>&1 | grep -v '^jobs:' \
  > "$TMP/suite_chains.txt"
if ! cmp -s "$TMP/suite_default.txt" "$TMP/suite_chains.txt"; then
  echo "FAIL: fsct test s3330 should default to the suite's 2 chains:"
  diff "$TMP/suite_default.txt" "$TMP/suite_chains.txt"
  FAILURES=$((FAILURES + 1))
fi

if [[ $FAILURES -ne 0 ]]; then
  echo "$FAILURES case(s) failed"
  exit 1
fi
echo "all CLI edge cases passed"
