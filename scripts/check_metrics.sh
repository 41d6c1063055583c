#!/usr/bin/env bash
# check_metrics.sh — scrape a running qserve /metrics endpoint and verify
# the output is well-formed Prometheus text exposition (version 0.0.4)
# carrying the instruments every layer is expected to export.
#
# Usage: scripts/check_metrics.sh http://127.0.0.1:9090
#
# Checks:
#   1. every non-comment line matches  name{labels} value
#   2. every series is preceded by # HELP and # TYPE lines
#   3. required per-layer metrics are present (serve, fastbit, scan, cluster)
#   4. at least one histogram exports _bucket/_sum/_count with an +Inf bucket
set -euo pipefail

BASE="${1:?usage: $0 <qserve-admin-base-url>}"
OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

curl -fsS "$BASE/metrics" >"$OUT"

fail() { echo "check_metrics: FAIL: $*" >&2; exit 1; }

# 1. Line format: metric lines are  name{k="v",...} value  with the value a
# float, integer, +Inf, -Inf or NaN. Comments must be # HELP or # TYPE.
awk '
/^#/ {
  if ($0 !~ /^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* /) {
    print "bad comment line: " $0; bad = 1
  }
  next
}
/^$/ { next }
{
  if ($0 !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|[+-]Inf|NaN)$/) {
    print "bad metric line: " $0; bad = 1
  }
}
END { exit bad }
' "$OUT" || fail "malformed exposition lines"

# 2. Every sample name (stripped of histogram suffixes) has HELP and TYPE.
while read -r name; do
  base="${name%_bucket}"; base="${base%_sum}"; base="${base%_count}"
  grep -q "^# HELP $base " "$OUT" || grep -q "^# HELP $name " "$OUT" \
    || fail "missing # HELP for $name"
  grep -q "^# TYPE $base " "$OUT" || grep -q "^# TYPE $name " "$OUT" \
    || fail "missing # TYPE for $name"
done < <(grep -v '^#' "$OUT" | grep -v '^$' | sed 's/[{ ].*//' | sort -u)

# 3. Required instruments, at least one per layer of the stack.
for metric in \
  serve_requests_total serve_request_seconds_bucket serve_inflight_requests \
  serve_cache_hits_total serve_admitted_total \
  serve_limit serve_brownout_active serve_degraded_total \
  fastbit_eval_rows_total fastbit_eval_seconds_bucket fastbit_candidate_check_fraction \
  scan_rows_total scan_seconds_bucket \
  cluster_rpc_calls_total cluster_unhealthy_workers cluster_hedges_total \
  serve_scatter_total serve_scatter_fragments_total serve_partial_total \
  shard_fragments_total; do
  grep -q "^$metric" "$OUT" || fail "missing required metric $metric"
done

# 4. Histogram invariants: an +Inf bucket exists and matches its _count.
grep -q 'le="+Inf"' "$OUT" || fail "no histogram exports an +Inf bucket"

# 5. Overload-control series: shed counters carry per-class labels, and
# the gauges/counters carry sane values (limit >= 1, counters >= 0 — the
# registry exports monotone counters, so a negative value means breakage).
for class in probe drill sweep ingest; do
  grep -q "^serve_shed_total{class=\"$class\"}" "$OUT" \
    || fail "serve_shed_total missing class=\"$class\" series"
  grep -q "^serve_admitted_total{class=\"$class\"}" "$OUT" \
    || fail "serve_admitted_total missing class=\"$class\" series"
done
for mode in coarse-cache index-only; do
  grep -q "^serve_degraded_total{mode=\"$mode\"}" "$OUT" \
    || fail "serve_degraded_total missing mode=\"$mode\" series"
done
awk '
/^serve_limit /            { if ($2+0 < 1)  { print "serve_limit " $2 " < 1"; bad = 1 } }
/^serve_brownout_active /  { if ($2+0 != 0 && $2+0 != 1) { print "serve_brownout_active " $2 " not 0/1"; bad = 1 } }
/^serve_shed_total\{/      { if ($2+0 < 0)  { print $0 " negative"; bad = 1 } }
/^serve_degraded_total\{/  { if ($2+0 < 0)  { print $0 " negative"; bad = 1 } }
END { exit bad }
' "$OUT" || fail "overload-control series out of range"

# 6. Resilience control-plane series: breaker trips, retry-budget levels
# and deadline-budget shed counters are present; per-worker breaker state,
# where exported, is a valid state (0 closed, 1 half-open, 2 open).
for metric in \
  cluster_breaker_trips_total cluster_breaker_open \
  cluster_retry_budget_tokens cluster_retry_budget_exhausted_total \
  shard_budget_shed_total shard_budget_skips_total shard_reply_corrupt_total; do
  grep -q "^$metric" "$OUT" || fail "missing required metric $metric"
done
awk '
/^cluster_breaker_state\{/      { v = $2+0; if (v != 0 && v != 1 && v != 2) { print $0 " not a breaker state"; bad = 1 } }
/^cluster_breaker_open /        { if ($2+0 < 0) { print $0 " negative"; bad = 1 } }
/^cluster_retry_budget_tokens / { if ($2+0 < 0) { print $0 " negative"; bad = 1 } }
END { exit bad }
' "$OUT" || fail "resilience series out of range"

# 7. Scatter-gather series: partial merges can never exceed scatters, and
# when any scatter happened the fragment fan-out is at least one per scatter.
awk '
/^serve_scatter_total /           { scat = $2+0 }
/^serve_partial_total /           { part = $2+0 }
/^serve_scatter_fragments_total / { frag = $2+0 }
END {
  if (part > scat) { print "serve_partial_total " part " > serve_scatter_total " scat; exit 1 }
  if (scat > 0 && frag < scat) { print "serve_scatter_fragments_total " frag " < scatters " scat; exit 1 }
}
' "$OUT" || fail "scatter-gather series inconsistent"

# 8. Observability-plane series: the explain counter, the multi-window
# SLO burn-rate gauges, and the flight-recorder counters. Burn rates are
# ratios (>= 0); a negative or missing window label means the monitor
# wiring broke.
for metric in \
  serve_explain_total serve_federation_errors_total \
  serve_slo_breaches_total serve_flight_captures_total serve_flight_dropped_total; do
  grep -q "^$metric" "$OUT" || fail "missing required metric $metric"
done
for window in fast slow; do
  grep -q "^serve_slo_burn_rate{window=\"$window\"}" "$OUT" \
    || fail "serve_slo_burn_rate missing window=\"$window\" series"
done
awk '
/^serve_slo_burn_rate\{/       { if ($2+0 < 0) { print $0 " negative"; bad = 1 } }
/^serve_slo_breaches_total /   { if ($2+0 < 0) { print $0 " negative"; bad = 1 } }
/^serve_flight_captures_total/ { if ($2+0 < 0) { print $0 " negative"; bad = 1 } }
END { exit bad }
' "$OUT" || fail "observability series out of range"

# 9. Analysis-session series: the gauges and counters the session layer
# exports, with reason-labeled evictions. Gauges are sizes (>= 0). With
# REQUIRE_SESSION_REUSE=1 (set by CI jobs that just drove a refinement
# workload) the reuse counter must actually have incremented.
for metric in \
  session_active session_selections session_bytes \
  session_refine_reuse_total session_refine_scratch_total \
  session_partial_rejects_total; do
  grep -q "^$metric" "$OUT" || fail "missing required metric $metric"
done
for reason in ttl count bytes; do
  grep -q "^session_evictions_total{reason=\"$reason\"}" "$OUT" \
    || fail "session_evictions_total missing reason=\"$reason\" series"
done
awk -v need_reuse="${REQUIRE_SESSION_REUSE:-0}" '
/^session_active /              { if ($2+0 < 0) { print $0 " negative"; bad = 1 } }
/^session_bytes /               { if ($2+0 < 0) { print $0 " negative"; bad = 1 } }
/^session_selections /          { if ($2+0 < 0) { print $0 " negative"; bad = 1 } }
/^session_refine_reuse_total /  { reuse = $2+0 }
END {
  if (need_reuse+0 == 1 && reuse <= 0) {
    print "session_refine_reuse_total did not increment"; bad = 1
  }
  exit bad
}
' "$OUT" || fail "session series out of range"

echo "check_metrics: OK ($(grep -cv '^#' "$OUT") samples, $(grep -c '^# TYPE' "$OUT") families)"
