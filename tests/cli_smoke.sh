#!/bin/sh
# End-to-end smoke test of the nocdeploy CLI: generate → solve (heuristic and
# annealing) → validate → simulate, all through the JSON interface.
# Usage: cli_smoke.sh <path-to-nocdeploy-cli>
set -e
CLI="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

"$CLI" gen --tasks 6 --rows 2 --cols 2 --alpha 2.5 --seed 11 -o "$DIR/prob.json"
test -s "$DIR/prob.json"

"$CLI" solve --problem "$DIR/prob.json" --method heuristic -o "$DIR/sol.json" \
  --gantt --dot "$DIR/dep.dot" | grep -q "valid"
test -s "$DIR/sol.json"
grep -q "digraph" "$DIR/dep.dot"

"$CLI" validate --problem "$DIR/prob.json" --solution "$DIR/sol.json" | grep -q "^valid$"

"$CLI" simulate --problem "$DIR/prob.json" --solution "$DIR/sol.json" --trials 5000 \
  | grep -q "event simulation: clean"

"$CLI" solve --problem "$DIR/prob.json" --method annealing --iters 2000 \
  -o "$DIR/sol_sa.json" | grep -q "valid"
"$CLI" validate --problem "$DIR/prob.json" --solution "$DIR/sol_sa.json" | grep -q "^valid$"

# Certify: heuristic mode re-validates + re-simulates the deployment.
"$CLI" certify --problem "$DIR/prob.json" --method heuristic | grep -q "certify: accepted"

# Certify: a fully audited MILP solve, certificate + audit emitted. The
# instance (3 tasks on a uniform 2x2 mesh) proves optimal in about a second,
# so the artifacts do not depend on how far a capped solve gets; presolve
# removes a column there, so the root certificate lives in the reduced space.
"$CLI" gen --tasks 3 --rows 2 --cols 2 --alpha 2.0 --seed 4 -o "$DIR/sym.json"
sed 's/"variation": *[-+0-9.eE]*/"variation": 0/' "$DIR/sym.json" > "$DIR/sym_uniform.json"
grep -q '"variation": 0,' "$DIR/sym_uniform.json"
"$CLI" certify --problem "$DIR/sym_uniform.json" --method optimal \
  --emit-certificate "$DIR/cert.json" --emit-audit "$DIR/audit.json" \
  -o "$DIR/milp_sol.json" > "$DIR/certify.txt"
grep -q "MILP status: optimal" "$DIR/certify.txt"
grep -q "certify: accepted" "$DIR/certify.txt"
test -s "$DIR/cert.json"
test -s "$DIR/audit.json"

# ...then the file mode re-checks solution, certificate and audit offline and
# accepts them (exit 0): the audit's root certificate is proved by the audit
# replay in the space it was emitted in, not against the original LP. Each
# certificate is proved once, so no line of the report appears twice; the
# lp-exact-* diagnostics (an informational vertex drift here) show their
# magnitude instead of "~0.000000".
"$CLI" certify --problem "$DIR/sym_uniform.json" --solution "$DIR/milp_sol.json" \
  --certificate "$DIR/cert.json" --audit "$DIR/audit.json" > "$DIR/file.txt"
grep -q "certify: accepted" "$DIR/file.txt"
if grep -q "lp-exact-shape" "$DIR/file.txt"; then
  echo "expected the root certificate to be checked in the audit's space" >&2
  exit 1
fi
if [ -n "$(sort "$DIR/file.txt" | uniq -d)" ]; then
  echo "expected each line of the certify report once" >&2
  exit 1
fi
grep "lp-exact-" "$DIR/file.txt" > "$DIR/xlines.txt"
test -s "$DIR/xlines.txt"
if grep -q "~0\.000000" "$DIR/xlines.txt"; then
  echo "expected exact diagnostics to print their magnitude" >&2
  exit 1
fi

# certify is always exact; --exact is no longer one of its flags.
set +e
"$CLI" certify --problem "$DIR/sym_uniform.json" --solution "$DIR/milp_sol.json" --exact \
  > "$DIR/exact_flag.txt" 2>&1
rc=$?
set -e
test "$rc" = "2"
grep -q "error: unknown flag --exact for certify" "$DIR/exact_flag.txt"

# A tampered audit log must be REJECTED with exit 1: a proved lower bound
# above the incumbent objective is impossible.
sed 's/"best_bound": *[-+0-9.eE]*/"best_bound": 1e9/' "$DIR/audit.json" \
  > "$DIR/audit_bad.json"
if "$CLI" certify --problem "$DIR/sym_uniform.json" --solution "$DIR/milp_sol.json" \
     --certificate "$DIR/cert.json" --audit "$DIR/audit_bad.json" >/dev/null 2>&1; then
  echo "expected certify to reject the tampered audit" >&2
  exit 1
fi

# An inverted branch interval ([1, 1] becomes [1, 0]) is a structure error:
# exit 1 with bnb-structure, not an exception.
awk '/"nodes": \[/ { in_nodes = 1 }
     in_nodes && !done && /"lo": 1,/ { lo_line = NR }
     in_nodes && !done && /"hi": 1,/ && lo_line == NR - 1 { sub(/"hi": 1,/, "\"hi\": 0,"); done = 1 }
     { print }' "$DIR/audit.json" > "$DIR/audit_inverted.json"
if cmp -s "$DIR/audit.json" "$DIR/audit_inverted.json"; then
  echo "expected the audit to hold a [1, 1] branch interval to invert" >&2
  exit 1
fi
set +e
"$CLI" certify --problem "$DIR/sym_uniform.json" --solution "$DIR/milp_sol.json" \
  --certificate "$DIR/cert.json" --audit "$DIR/audit_inverted.json" \
  > "$DIR/inverted.txt" 2>&1
rc=$?
set -e
test "$rc" = "1"
grep -q "bnb-structure" "$DIR/inverted.txt"

# Lint: static instance analysis; --presolve-report prints the proof-carrying
# reduction summary (canonical hash + per-pass tallies) without solving.
"$CLI" lint --problem "$DIR/prob.json" --presolve-report > "$DIR/lint.txt"
grep -q "canonical instance hash" "$DIR/lint.txt"
grep -q "model passes:" "$DIR/lint.txt"
grep -q "lint: 0 error(s)" "$DIR/lint.txt"

# Telemetry: --stats prints the per-subsystem table after any command (or an
# honest "compiled out" note when NOCDEPLOY_OBS is off — both say telemetry:).
"$CLI" solve --problem "$DIR/prob.json" --method heuristic --stats \
  | grep -q "telemetry:"

# profile implies --stats and exercises every subsystem; --trace writes
# Chrome trace_event JSON (valid, possibly empty, in BOTH build flavours).
"$CLI" profile --problem "$DIR/sym_uniform.json" --iters 500 --trials 2000 \
  --trace "$DIR/trace.json" | grep -q "telemetry:"
test -s "$DIR/trace.json"
grep -q "traceEvents" "$DIR/trace.json"

# --trace to an unwritable path must fail loudly with exit 2, not silently.
if "$CLI" profile --problem "$DIR/sym_uniform.json" --iters 500 --trials 2000 \
     --trace /nonexistent-dir/trace.json \
     >/dev/null 2>"$DIR/trace_err.txt"; then
  echo "expected --trace to an unwritable path to fail" >&2
  exit 1
fi
grep -q "cannot write trace file" "$DIR/trace_err.txt"

# profile profiles what solve runs: on a uniform mesh (where the instance
# passes fix a symmetric host) both search the same tree, so their MILP node
# counts are equal (one thread, so the counts are deterministic). The
# instance is the uniform-mesh one built for the certify cases above.
solve_nodes="$("$CLI" solve --problem "$DIR/sym_uniform.json" --method optimal \
  | sed -n 's/^MILP status: [a-z]*, nodes \([0-9]*\),.*/\1/p')"
profile_nodes="$("$CLI" profile --problem "$DIR/sym_uniform.json" --iters 500 --trials 100 \
  --time-limit 60 | sed -n 's/^profile: MILP .*, \([0-9]*\) nodes,.*/\1/p')"
test -n "$solve_nodes"
if [ "$solve_nodes" != "$profile_nodes" ]; then
  echo "expected profile ($profile_nodes nodes) to search solve's tree ($solve_nodes nodes)" >&2
  exit 1
fi

# Regression observatory: a tiny sweep writes a schema /4 document and
# appends one JSONL line to the trajectory file per run.
"$CLI" sweep --seeds 2 --tasks 3 --rows 2 --cols 2 --time-limit 10 \
  -o "$DIR/sweep.json" --append-history "$DIR/traj.jsonl" | grep -q "wrote"
grep -q '"schema": "nocdeploy-sweep/4"' "$DIR/sweep.json"
test "$(wc -l < "$DIR/traj.jsonl")" = "1"
grep -q '"serial_wall_s"' "$DIR/traj.jsonl"

# bench diff: a document against itself is all within-noise (exit 0)...
"$CLI" bench diff "$DIR/sweep.json" "$DIR/sweep.json" | grep -q "0 regression(s)"

# ...a corrupted schema string makes the documents incomparable (exit 3)...
sed 's/"schema": "nocdeploy-sweep\/4"/"schema": "nocdeploy-sweep\/0"/' \
  "$DIR/sweep.json" > "$DIR/sweep_old_schema.json"
set +e
"$CLI" bench diff "$DIR/sweep_old_schema.json" "$DIR/sweep.json" \
  > "$DIR/diff_schema.txt" 2>/dev/null
rc=$?
set -e
test "$rc" = "3"
grep -q "bench-diff-schema-mismatch" "$DIR/diff_schema.txt"

# ...and a seeded 10x wall-clock regression gates with exit 1, with the
# flight recorder's error-level gate event dumped to the --log-json sink.
sed 's/"wall_clock_s": *\([0-9.eE+-]*\)/"wall_clock_s": 1e6/' "$DIR/sweep.json" \
  > "$DIR/sweep_slow.json"
set +e
"$CLI" bench diff "$DIR/sweep.json" "$DIR/sweep_slow.json" \
  --log-json "$DIR/flight.jsonl" > "$DIR/diff_slow.txt" 2>/dev/null
rc=$?
set -e
test "$rc" = "1"
grep -q "bench-diff-time-regression" "$DIR/diff_slow.txt"
# The JSONL dump only exists when the obs layer is compiled in.
if "$CLI" solve --problem "$DIR/prob.json" --method heuristic --stats \
     | grep -q "compiled out"; then
  test ! -s "$DIR/flight.jsonl"
else
  grep -q '"bench-diff-gate"' "$DIR/flight.jsonl"
fi

# bench usage errors: wrong arity and unknown subcommand exit 2.
set +e
"$CLI" bench diff "$DIR/sweep.json" 2>/dev/null; test "$?" = "2"
"$CLI" bench frobnicate a b 2>/dev/null; test "$?" = "2"
set -e

# Error paths: bad file and usage errors must not return success.
if "$CLI" validate --problem /nonexistent.json --solution "$DIR/sol.json" 2>/dev/null; then
  echo "expected failure on missing problem file" >&2
  exit 1
fi
if "$CLI" frobnicate 2>/dev/null; then
  echo "expected usage error" >&2
  exit 1
fi

# Unknown flags are usage errors (exit 2), never silently ignored: a removed
# option and a misspelled one both fail before the command runs.
set +e
"$CLI" solve --problem "$DIR/prob.json" --method optimal --lp-engine tableau \
  > /dev/null 2> "$DIR/flag_err.txt"
rc=$?
set -e
test "$rc" = "2"
grep -q "error: unknown flag --lp-engine for solve" "$DIR/flag_err.txt"
set +e
"$CLI" solve --problem "$DIR/prob.json" --method optimal --time-limt 5 \
  > /dev/null 2> "$DIR/flag_err.txt"
rc=$?
set -e
test "$rc" = "2"
grep -q "error: unknown flag --time-limt for solve" "$DIR/flag_err.txt"

echo "cli smoke OK"
