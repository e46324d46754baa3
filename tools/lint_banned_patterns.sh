#!/bin/sh
# Banned-pattern lint over src/, tests/ and tools/ (classes 10 and 11 also
# bench/).
#
# Eleven pattern classes, each with a rationale:
#   1. rand()/std::rand — all randomness must flow through common/prng.hpp so
#      every instance, mesh and heuristic run is reproducible from a seed.
#   2. floating-point ==/!= against a float literal — almost always a
#      tolerance bug in numeric code. Legitimate exact comparisons (zero-
#      coefficient sparsity skips, 0/1 flag decodes) carry an `fp-exact`
#      comment on the same line, which whitelists them.
#   3. `using namespace std;` in headers — leaks into every includer.
#   4. std::chrono::system_clock in src/ — telemetry and audit timestamps
#      must be monotonic (obs::now_ns / steady_clock); wall-clock time goes
#      backwards under NTP and breaks span durations and node timelines.
#   5. ==/!= on a line that touches `double` inside src/analysis/exact/ —
#      the proof layer compares in exact rational arithmetic only; a double
#      equality there silently reintroduces the float tolerances the layer
#      exists to eliminate. Rat/BigInt/enum comparisons are exact and pass;
#      the audited I/O boundary carries `fp-exact` (or `rat-io`) to whitelist.
#   6. float/double state in the Rat/BigInt header — rat.hpp must hold no
#      floating-point members or locals outside the annotated conversion
#      boundary; every double there carries a `rat-io` comment or it fails.
#   7. hand-rolled tolerance literals (`1e-...`) in the presolve layers —
#      every margin there must come from the shared claim envelope
#      (analysis/exact/envelope.hpp), so the float presolve passes back their
#      claims off by exactly what the exact certifier needs to re-prove them
#      with zero tolerance. A presolve file that
#      needs a new constant derives it (ldexp of a power of two) or extends
#      the envelope; it never inlines `1e-6`-style magic.
#   8. tolerance literals in the sparse/LU kernels (lp/sparse.*,
#      lp/basis_lu.*) — same discipline as class 7: drop tolerances,
#      pivot-admissibility floors and eta growth margins in the
#      factorization must be envelope-derived (or exact integer/ldexp
#      expressions), because the exact proof layer re-checks certificates
#      produced through these kernels and both sides must agree on what
#      counts as zero.
#   9. printf / std::cout / std::cerr in the solver layers (src/lp/,
#      src/milp/) — those layers report through obs (counters, spans and the
#      flight recorder), never by writing to the terminal; printing is the
#      CLI's and the benches' job. snprintf into a buffer is not output and
#      passes.
#  10. pointing MipOptions::instance_reductions at a log (`instance_reductions
#      = &`) anywhere but src/analysis/solve_deployment.cpp — every deployment
#      MILP solve goes through analysis::solve_deployment, which seeds the
#      root presolve with the warm-aware instance passes; a hand-built copy
#      drifts from it (a different warm point, a missing completion hook) and
#      searches a different tree. Clearing the field (`= nullptr`) passes.
#  11. calling lp::apply_reductions anywhere but the presolve itself
#      (src/lp/presolve.*, src/milp/presolve.cpp) and the audit replays'
#      front half (src/analysis/certify_bnb.cpp) — a checker that needs the
#      reduced model an audit's tree searched asks analysis::searched_model,
#      which re-proves the reduction log before rebuilding that model; a
#      hand-rebuilt copy skips the proof or picks the wrong space.
#
# Exit 0 when clean, 1 with one "file:line: message" per hit otherwise.
# Run from anywhere: paths resolve relative to the repo root. POSIX sh only —
# ctest and CI invoke this with `sh`.
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root" || exit 2

fail=0
report_hits() {  # report_hits <grep -n output> <message>
  [ -n "$1" ] || return 0
  printf '%s\n' "$1" | awk -F: -v msg="$2" '{print $1 ":" $2 ": " msg}'
  fail=1
}

sources() { find src tests tools -name '*.cpp' -o -name '*.hpp' | sort; }
headers() { find src tests tools -name '*.hpp' | sort; }

# --- 1. rand()/std::rand -----------------------------------------------------
hits="$(sources | xargs grep -nE '(^|[^_[:alnum:]])(std::)?rand[[:space:]]*\(' /dev/null | grep -v 'fp-exact')" || true
report_hits "$hits" "rand()/std::rand is banned; use common/prng.hpp (seeded, reproducible)"

# --- 2. float ==/!= without an fp-exact annotation ---------------------------
# Matches a comparison where either side is a floating-point literal
# (digits '.' digits). Comparisons between two variables are left to review;
# a literal on one side is the greppable, high-signal case.
float_eq='(==|!=)[[:space:]]*[-+]?[0-9]+\.[0-9]|[0-9]+\.[0-9]+f?[[:space:]]*(==|!=)'
hits="$(sources | xargs grep -nE "$float_eq" /dev/null | grep -v 'fp-exact')" || true
report_hits "$hits" "floating-point ==/!= needs a tolerance or an 'fp-exact' comment on the line"

# --- 3. using namespace std; in headers --------------------------------------
hits="$(headers | xargs grep -nE 'using[[:space:]]+namespace[[:space:]]+std[[:space:]]*;' /dev/null)" || true
report_hits "$hits" "'using namespace std;' in a header leaks into every includer"

# --- 4. system_clock in src/ -------------------------------------------------
hits="$(find src -name '*.cpp' -o -name '*.hpp' | sort \
  | xargs grep -n 'system_clock' /dev/null)" || true
report_hits "$hits" "system_clock is not monotonic; use obs::now_ns() / steady_clock"

# --- 5. double equality inside the exact proof layer -------------------------
# Any ==/!= on a line that also mentions double/float is suspect there: the
# whole point of src/analysis/exact/ is that nothing numeric is compared in
# floating point. Annotated boundary lines (fp-exact / rat-io) pass.
exact_files="$(find src/analysis/exact -name '*.cpp' -o -name '*.hpp' | sort)"
hits="$(printf '%s\n' "$exact_files" | xargs grep -nE '==|!=' /dev/null \
  | grep -E 'double|float' | grep -vE 'fp-exact|rat-io')" || true
report_hits "$hits" "float comparison in the exact proof layer; compare as Rat or annotate 'fp-exact'"

# --- 6. floating-point state in the exact rational header --------------------
# rat.hpp must stay free of float/double members and arithmetic: every
# appearance of a floating-point type there is I/O boundary code and must be
# annotated 'rat-io' (conversion in/out) so reviewers see the full surface.
hits="$(awk '{
    code = $0; sub(/\/\/.*/, "", code)   # prose in comments is fine
    if ($0 ~ /rat-io|fp-exact/) next
    if (code ~ /(^|[^_[:alnum:]])(double|float)([^_[:alnum:]]|$)/)
      print "src/analysis/exact/rat.hpp:" FNR ":" $0
  }' src/analysis/exact/rat.hpp)" || true
report_hits "$hits" "floating-point type in rat.hpp outside the annotated 'rat-io' I/O boundary"

# --- 7. tolerance literals in the presolve layers ----------------------------
# The proof-carrying presolve derives every margin from the shared envelope;
# an inline `1e-...` literal there is a tunable tolerance in disguise and
# would let the engine and the certifier drift apart.
presolve_files="$(find src/lp -name 'presolve.*' ; find src/milp -name 'presolve.*' ; \
  find src/analysis/presolve -name '*.cpp' -o -name '*.hpp')"
hits="$(printf '%s\n' "$presolve_files" | sort | xargs grep -nE '1[eE]-[0-9]' /dev/null)" || true
report_hits "$hits" "tolerance literal in a presolve layer; derive margins from analysis/exact/envelope.hpp"

# --- 8. tolerance literals in the sparse/LU factorization kernels ------------
# The revised engine's numeric floors (drop tolerance, pivot admissibility,
# eta growth) must be envelope-derived for the same reason as class 7: the
# exact layer re-proves certificates that flowed through these kernels.
lu_files="$(find src/lp -name 'sparse.*' ; find src/lp -name 'basis_lu.*')"
hits="$(printf '%s\n' "$lu_files" | sort | xargs grep -nE '1[eE]-[0-9]' /dev/null)" || true
report_hits "$hits" "tolerance literal in a sparse/LU kernel; derive margins from analysis/exact/envelope.hpp"

# --- 9. terminal output from the solver layers ------------------------------
solver_files="$(find src/lp src/milp -name '*.cpp' -o -name '*.hpp' | sort)"
hits="$(printf '%s\n' "$solver_files" | xargs grep -nE \
  '(^|[^_[:alnum:]])(std::)?(f|v|vf)?printf[[:space:]]*\(|(^|[^_[:alnum:]])(std::)?puts[[:space:]]*\(|std::(cout|cerr|clog)' \
  /dev/null)" || true
report_hits "$hits" "terminal output in a solver layer; report through obs (counters, spans, ND_OBS_LOG)"

# --- 10. hand-built deployment solves -----------------------------------------
hits="$(find src tests tools bench -name '*.cpp' -o -name '*.hpp' | sort \
  | grep -vx 'src/analysis/solve_deployment.cpp' \
  | xargs grep -nE 'instance_reductions[[:space:]]*=[[:space:]]*&' /dev/null)" || true
report_hits "$hits" "instance_reductions seeded by hand; solve through analysis::solve_deployment"

# --- 11. hand-rebuilt reduced models ------------------------------------------
hits="$(find src tests tools bench -name '*.cpp' -o -name '*.hpp' | sort \
  | grep -vxE 'src/lp/presolve\.(cpp|hpp)|src/milp/presolve\.cpp|src/analysis/certify_bnb\.cpp' \
  | xargs grep -nE 'apply_reductions[[:space:]]*\(' /dev/null)" || true
report_hits "$hits" "apply_reductions called by hand; ask analysis::searched_model for an audit's reduced model"

if [ "$fail" -eq 0 ]; then
  echo "lint_banned_patterns: clean"
fi
exit "$fail"
