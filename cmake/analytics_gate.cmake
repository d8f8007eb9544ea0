# Regression gate over bench/micro_analytics's BENCH_analytics.json.
#
# Two tiers, mirroring cmake/parallel_gate.cmake:
#
#   * Correctness + coverage gate, always on: bit_identical must be true
#     (the parallel matrix matched the serial oracle, the merged day slices
#     matched the whole-week matrix, build_analytics was deterministic
#     across repetitions, and the ANALYTICS section round-tripped
#     byte-identically), the workload must have ingested
#     flows and produced matrix cells, and every timed stage must carry a
#     positive measurement — a silently-skipped or degenerate bench fails
#     loudly.
#   * Tap overhead ceiling, context-gated: the analytics tap may slow the
#     collect by at most TAP_OVERHEAD_CEILING_PCT percent (default 100) —
#     but only when the recorded meta block says the bench had at least
#     MIN_CORES_FOR_RATIO effective cores.  On an oversubscribed
#     single-core container the off/on delta measures scheduler weather,
#     not the tap.
#
#   cmake -DBENCH_JSON=<path> [-DTAP_OVERHEAD_CEILING_PCT=100] \
#         [-DMIN_CORES_FOR_RATIO=2] -P analytics_gate.cmake
#
# The ceiling comes from measurement: the sorted-run tap costs a median
# 34.5% (range 24-69%, 13 MTSCOPE_BENCH_SCALE=small runs on a 4-core
# host), and the 65-point margin absorbs slower runners.  It catches the
# tap becoming a second collect pass, not run-to-run noise.
if(NOT DEFINED BENCH_JSON)
  message(FATAL_ERROR "pass -DBENCH_JSON=<path to BENCH_analytics.json>")
endif()
if(NOT DEFINED TAP_OVERHEAD_CEILING_PCT)
  set(TAP_OVERHEAD_CEILING_PCT 100)
endif()
if(NOT DEFINED MIN_CORES_FOR_RATIO)
  set(MIN_CORES_FOR_RATIO 2)
endif()

if(NOT EXISTS "${BENCH_JSON}")
  message(FATAL_ERROR "bench output missing: ${BENCH_JSON}")
endif()
file(READ "${BENCH_JSON}" json)

# cmake's math() is integer-only; truncate fractional parts when a whole
# number is all the comparison needs (negative overhead truncates toward
# zero, which is fine for a ceiling check).
function(json_int out_var)
  string(JSON value ERROR_VARIABLE err GET "${json}" ${ARGN})
  if(err)
    message(FATAL_ERROR "BENCH_analytics.json missing ${ARGN}: ${err}")
  endif()
  string(REGEX REPLACE "\\..*$" "" value "${value}")
  if(value STREQUAL "" OR value STREQUAL "-")
    set(value 0)
  endif()
  set(${out_var} "${value}" PARENT_SCOPE)
endfunction()

# -- correctness + coverage gate (always on) ---------------------------------
string(JSON bit_identical ERROR_VARIABLE err GET "${json}" bit_identical)
if(err)
  message(FATAL_ERROR "BENCH_analytics.json missing bit_identical: ${err}")
endif()
if(NOT bit_identical STREQUAL "ON" AND NOT bit_identical STREQUAL "true")
  message(FATAL_ERROR
    "analytics gate: bit_identical=${bit_identical} - the matrix, the rollup "
    "or the ANALYTICS codec diverged from its reference")
endif()

json_int(flows workload flows)
json_int(rx_cells workload rx_cells)
if(flows LESS_EQUAL 0 OR rx_cells LESS_EQUAL 0)
  message(FATAL_ERROR
    "analytics gate: degenerate workload (flows=${flows}, rx_cells=${rx_cells}) - "
    "the tap did not actually populate a matrix")
endif()

json_int(collect_ms tap collect_ms)
json_int(merge_ms window merge_ms)
json_int(rollup_ms rollup build_ms)
if(collect_ms LESS_EQUAL 0 OR merge_ms LESS 0 OR rollup_ms LESS 0)
  message(FATAL_ERROR
    "analytics gate: degenerate measurement (tap collect_ms=${collect_ms}, "
    "window merge_ms=${merge_ms}, rollup build_ms=${rollup_ms})")
endif()

json_int(kept_cells rollup kept_cells)
json_int(scanners rollup scanners)
if(kept_cells LESS_EQUAL 0 OR scanners LESS_EQUAL 0)
  message(FATAL_ERROR
    "analytics gate: empty rollup (kept_cells=${kept_cells}, "
    "scanners=${scanners}) - the meta-telescope intersect produced nothing")
endif()

# -- tap overhead ceiling (only when the hardware context supports it) -------
json_int(cores meta effective_cores)
json_int(overhead_pct tap overhead_pct)
if(cores GREATER_EQUAL MIN_CORES_FOR_RATIO)
  if(overhead_pct GREATER TAP_OVERHEAD_CEILING_PCT)
    message(FATAL_ERROR
      "analytics gate: tap overhead ${overhead_pct}% above ceiling "
      "${TAP_OVERHEAD_CEILING_PCT}% on a ${cores}-core host - the analytics "
      "tap regressed the collect path")
  endif()
  message(STATUS
    "analytics gate OK: bit_identical, flows=${flows}, rx_cells=${rx_cells}, "
    "kept_cells=${kept_cells}, tap overhead ${overhead_pct}% "
    "(ceiling ${TAP_OVERHEAD_CEILING_PCT}%, cores=${cores})")
else()
  message(STATUS
    "analytics gate OK: bit_identical, flows=${flows}, rx_cells=${rx_cells}, "
    "kept_cells=${kept_cells}; tap overhead ${overhead_pct}% recorded "
    "(ceiling not enforced: cores=${cores}, need >= ${MIN_CORES_FOR_RATIO})")
endif()
