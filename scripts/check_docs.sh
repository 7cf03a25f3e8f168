#!/usr/bin/env bash
# Keeps the docs honest against the source tree. Run from anywhere:
#
#   scripts/check_docs.sh [repo-root]
#
# Checks:
#   1. every src/<module> directory is named in docs/architecture.md;
#   2. every `soctest --flag` shown in a fenced code block of README.md,
#      DESIGN.md, or docs/*.md is actually recognized by the CLI parser
#      (src/cli/options.cpp);
#   3. every failpoint site in src/runtime/failpoint.hpp is documented in
#      docs/robustness.md (the catalog is the fault-injection contract);
#   4. every pinned ledger counter (kLedgerCounters in src/obs/ledger.hpp)
#      is documented in docs/observability.md AND actually emitted by the
#      instrumentation (an exact obs::counter("...") literal in src);
#   5. every `layer.component` metric prefix the instrumentation emits is
#      listed in docs/observability.md's naming table;
#   6. every `soctest-serve`/`soctest-frontdoor`/`soctest-loadgen` flag
#      shown in a fenced code block is parsed by that tool's source
#      (tools/soctest_<name>.cpp) — the operations runbook cannot drift
#      from the binaries it drives;
#   7. the service.* AND frontdoor.* metric catalogs in docs/service.md are
#      bidirectional against the emitted literals, and docs/operations.md
#      (the fleet runbook) exists;
#   8. the quick-gate case list in docs/benchmarks.md names exactly the
#      cases of bench/baselines/quick_gate.json.
#
# Wired into ctest as the `docs` label: ctest -L docs

set -u
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
fail=0

for dir in "$root"/src/*/; do
  mod=$(basename "$dir")
  if ! grep -q "src/$mod" "$root/docs/architecture.md"; then
    echo "FAIL: src/$mod is not mentioned in docs/architecture.md"
    fail=1
  fi
done

# Fenced code blocks only, with backslash continuations joined, lines that
# invoke soctest, their --flags.
soctest_flags() {
  awk '/^```/ { inblock = !inblock; next } inblock { print }' "$1" |
    sed -e ':a' -e '/\\$/N; s/\\\n/ /; ta' |
    grep -E '(^|[ /])soctest( |$)' |
    grep -oE '\-\-[a-z][a-z-]*' |
    sort -u
}

for doc in "$root"/README.md "$root"/DESIGN.md "$root"/docs/*.md; do
  [ -f "$doc" ] || continue
  for flag in $(soctest_flags "$doc"); do
    if ! grep -qF "\"$flag\"" "$root/src/cli/options.cpp"; then
      echo "FAIL: $(basename "$doc") documents soctest flag '$flag'," \
           "which src/cli/options.cpp does not parse"
      fail=1
    fi
  done
done

# Same idea for the fleet binaries: a documented flag the tool does not
# parse is a runbook that fails at 3am. $2 is the binary name as invoked.
binary_flags() {
  awk '/^```/ { inblock = !inblock; next } inblock { print }' "$1" |
    sed -e ':a' -e '/\\$/N; s/\\\n/ /; ta' |
    grep -E "(^|[ /])$2( |$)" |
    grep -oE '\-\-[a-z][a-z-]*' |
    sort -u
}

for tool in serve frontdoor loadgen chaos top; do
  tool_src="$root/tools/soctest_${tool}.cpp"
  for doc in "$root"/README.md "$root"/DESIGN.md "$root"/docs/*.md; do
    [ -f "$doc" ] || continue
    for flag in $(binary_flags "$doc" "soctest-$tool"); do
      if ! grep -qF "\"$flag\"" "$tool_src"; then
        echo "FAIL: $(basename "$doc") documents soctest-$tool flag" \
             "'$flag', which tools/soctest_${tool}.cpp does not parse"
        fail=1
      fi
    done
  done
done

if [ ! -f "$root/docs/operations.md" ]; then
  echo "FAIL: docs/operations.md is missing (the fleet runbook)"
  fail=1
fi

for site in $(grep -E '^inline constexpr const char\* k' \
                "$root/src/runtime/failpoint.hpp" |
                grep -oE '"[a-z.]+"' | tr -d '"' | sort -u); do
  if ! grep -qF "$site" "$root/docs/robustness.md"; then
    echo "FAIL: failpoint site '$site' (src/runtime/failpoint.hpp)" \
         "is not documented in docs/robustness.md"
    fail=1
  fi
done

# The ledger's pinned counter set is a cross-run schema: each name must be
# documented AND must match a literal the instrumentation really emits, or
# ledger records silently fill with zeros.
emitted_names=$(grep -rhoE 'obs::(counter|histogram)\("[a-z_.]+' \
                  "$root"/src/*/*.cpp |
                  sed -E 's/obs::(counter|histogram)\("//' | sort -u)
for name in $(sed -n '/kLedgerCounters\[\]/,/};/p' "$root/src/obs/ledger.hpp" |
                grep -oE '"[a-z_.]+"' | tr -d '"' | sort -u); do
  if ! grep -qF "$name" "$root/docs/observability.md"; then
    echo "FAIL: ledger counter '$name' (src/obs/ledger.hpp)" \
         "is not documented in docs/observability.md"
    fail=1
  fi
  if ! printf '%s\n' "$emitted_names" | grep -qxF "$name"; then
    echo "FAIL: ledger counter '$name' (src/obs/ledger.hpp) is not emitted" \
         "by any obs::counter(...) literal in src — records would pin zeros"
    fail=1
  fi
done

# The service metric catalog (docs/service.md) is bidirectional: every
# emitted service.* counter/histogram must be documented there, and every
# documented service.* name must still be emitted (spans count — they are
# instrumentation too, via obs::Span literals).
service_doc="$root/docs/service.md"
if [ -f "$service_doc" ]; then
  service_emitted=$( { printf '%s\n' "$emitted_names" | grep -E '^service\.';
                       grep -rhoE 'obs::Span[^"]*"service\.[a-z_.]+' \
                         "$root"/src/*/*.cpp | grep -oE 'service\.[a-z_.]+'; } |
                     sort -u )
  for name in $service_emitted; do
    if ! grep -qF "\`$name\`" "$service_doc"; then
      echo "FAIL: service metric '$name' is emitted by src/service but not" \
           "documented in docs/service.md"
      fail=1
    fi
  done
  # NB: the backtick is literal inside single quotes and must NOT be
  # backslash-escaped — grep -E would read \` as its start-of-input anchor
  # and the doc-side extraction would silently match nothing.
  for name in $(grep -oE '`service\.[a-z_.]+`' "$service_doc" |
                  tr -d '`' | sort -u); do
    if ! printf '%s\n' "$service_emitted" | grep -qxF "$name"; then
      echo "FAIL: docs/service.md documents service metric '$name', which" \
           "no obs::counter/histogram/Span literal in src emits"
      fail=1
    fi
  done
  # frontdoor.* gets the same bidirectional treatment: the front door's
  # counters are the fleet's only aggregate view, so the catalog in
  # docs/service.md must match the emitted set exactly. Its relay/queue
  # spans are emitted at settle time via obs::emit_span (the poll loop
  # cannot hold Span objects across ticks), so those literals count too.
  frontdoor_emitted=$( { printf '%s\n' "$emitted_names" |
                           grep -E '^frontdoor\.' || true;
                         grep -rhoE 'obs::(Span|emit_span)\("frontdoor\.[a-z_.]+' \
                           "$root"/src/*/*.cpp |
                           grep -oE 'frontdoor\.[a-z_.]+' || true; } |
                       sort -u)
  for name in $frontdoor_emitted; do
    if ! grep -qF "\`$name\`" "$service_doc"; then
      echo "FAIL: front-door metric '$name' is emitted by src/service but" \
           "not documented in docs/service.md"
      fail=1
    fi
  done
  for name in $(grep -oE '`frontdoor\.[a-z_.]+`' "$service_doc" |
                  tr -d '`' | sort -u); do
    if ! printf '%s\n' "$frontdoor_emitted" | grep -qxF "$name"; then
      echo "FAIL: docs/service.md documents front-door metric '$name'," \
           "which no obs::counter literal in src emits"
      fail=1
    fi
  done
  # The soctest-stats-v1 field catalog: kStatsFields (the union of probe,
  # serve-reply, and merged-reply members in src/service/protocol.hpp)
  # must match the delimited schema table in docs/service.md exactly, in
  # both directions — soctest-top renders from these names.
  stats_src=$(sed -n '/kStatsFields\[\]/,/};/p' \
                "$root/src/service/protocol.hpp" |
                grep -oE '"[a-z_0-9]+"' | tr -d '"' | sort -u)
  stats_doc=$(sed -n '/<!-- stats-fields-begin -->/,/<!-- stats-fields-end -->/p' \
                "$service_doc" | grep -oE '`[a-z_0-9]+`' | tr -d '`' |
                sort -u)
  for name in $stats_src; do
    if ! printf '%s\n' "$stats_doc" | grep -qxF "$name"; then
      echo "FAIL: soctest-stats-v1 field '$name' (kStatsFields) is missing" \
           "from the delimited catalog in docs/service.md"
      fail=1
    fi
  done
  for name in $stats_doc; do
    if ! printf '%s\n' "$stats_src" | grep -qxF "$name"; then
      echo "FAIL: docs/service.md documents soctest-stats-v1 field '$name'," \
           "which kStatsFields (src/service/protocol.hpp) does not list"
      fail=1
    fi
  done
  # The accepted --solver names: the CLI parser's dispatch chain
  # (src/cli/options.cpp) vs the delimited catalog in docs/service.md,
  # diffed both ways — a solver the docs do not name is undiscoverable,
  # and a documented name the parser rejects is a lying runbook.
  solver_src=$(sed -n '/arg == "--solver"/,/unknown solver/p' \
                 "$root/src/cli/options.cpp" |
                 grep -oE 'name == "[a-z-]+"' | grep -oE '"[a-z-]+"' |
                 tr -d '"' | sort -u)
  # The markers sit inside one table cell, so extract within the line (a
  # sed address range would run to EOF when begin and end share a line).
  solver_doc=$(sed -n 's/.*<!-- solver-names-begin -->\(.*\)<!-- solver-names-end -->.*/\1/p' \
                 "$service_doc" |
                 grep -oE '`[a-z-]+`' | tr -d '`' | sort -u)
  if [ -z "$solver_doc" ]; then
    echo "FAIL: docs/service.md has no solver-names-begin/end catalog"
    fail=1
  fi
  for name in $solver_src; do
    if ! printf '%s\n' "$solver_doc" | grep -qxF "$name"; then
      echo "FAIL: the CLI parses --solver $name (src/cli/options.cpp) but" \
           "the delimited solver catalog in docs/service.md omits it"
      fail=1
    fi
  done
  for name in $solver_doc; do
    if ! printf '%s\n' "$solver_src" | grep -qxF "$name"; then
      echo "FAIL: docs/service.md documents solver '$name', which" \
           "src/cli/options.cpp does not parse"
      fail=1
    fi
  done
else
  echo "FAIL: docs/service.md is missing (the service metric catalog)"
  fail=1
fi

# The chaos-engineering contract (docs/robustness.md) is bidirectional the
# same way: the fault-injection counters (chaos.faults.*) and the resilient
# client's counters (client.retry.*) are what a soak run is judged by, so
# the doc and the instrumentation must agree exactly in both directions.
robustness_doc="$root/docs/robustness.md"
if [ -f "$robustness_doc" ]; then
  for pat in '^chaos\.faults\.' '^client\.retry\.'; do
    pat_emitted=$(printf '%s\n' "$emitted_names" | grep -E "$pat" || true)
    for name in $pat_emitted; do
      if ! grep -qF "\`$name\`" "$robustness_doc"; then
        echo "FAIL: metric '$name' is emitted by src/service but not" \
             "documented in docs/robustness.md"
        fail=1
      fi
    done
    for name in $(grep -oE "\`${pat#^}[a-z_.]+\`" "$robustness_doc" |
                    tr -d '\`' | sort -u); do
      if ! printf '%s\n' "$pat_emitted" | grep -qxF "$name"; then
        echo "FAIL: docs/robustness.md documents metric '$name', which no" \
             "obs::counter literal in src emits"
        fail=1
      fi
    done
  done
else
  echo "FAIL: docs/robustness.md is missing (the chaos/retry contract)"
  fail=1
fi

# Every emitted layer.component prefix must be in the naming table, so the
# metric catalog cannot rot as instrumentation grows.
for prefix in $(printf '%s\n' "$emitted_names" |
                  sed -E 's/^([a-z]+\.[a-z_]+)\..*/\1/' | sort -u); do
  if ! grep -qF "$prefix." "$root/docs/observability.md"; then
    echo "FAIL: metric prefix '$prefix.*' is emitted by src but missing" \
         "from docs/observability.md's naming table"
    fail=1
  fi
done

# The gate-case list is delimited by markers that may span lines, so the
# whole doc is joined before extraction.
gate_src=$(grep -oE '"[a-z0-9_]+":\{"wall_ms"' \
             "$root/bench/baselines/quick_gate.json" |
             grep -oE '^"[a-z0-9_]+"' | tr -d '"' | sort -u)
gate_doc=$(tr '\n' ' ' < "$root/docs/benchmarks.md" |
             sed -n 's/.*<!-- gate-cases-begin -->\(.*\)<!-- gate-cases-end -->.*/\1/p' |
             grep -oE '`[a-z0-9_]+`' | tr -d '`' | sort -u)
if [ -z "$gate_src" ] || [ -z "$gate_doc" ]; then
  echo "FAIL: no quick-gate case list found (bench/baselines/quick_gate.json" \
       "or the gate-cases-begin/end markers in docs/benchmarks.md)"
  fail=1
fi
for name in $gate_src; do
  if ! printf '%s\n' "$gate_doc" | grep -qxF "$name"; then
    echo "FAIL: quick-gate case '$name' (bench/baselines/quick_gate.json)" \
         "is missing from the gate-case list in docs/benchmarks.md"
    fail=1
  fi
done
for name in $gate_doc; do
  if ! printf '%s\n' "$gate_src" | grep -qxF "$name"; then
    echo "FAIL: docs/benchmarks.md lists gate case '$name', which" \
         "bench/baselines/quick_gate.json does not pin"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED"
  exit 1
fi
echo "check_docs: OK"
