#!/usr/bin/env python3
"""Validate and diff substrate_scale BENCH records (single-line JSON).

Usage: bench_diff.py <committed.json> <fresh.json>

Three classes of keys:
  * structural — deterministic for the pinned tier (counts, hashes):
    must match the committed record exactly;
  * layout — per-entry byte costs: deterministic modulo allocator details,
    compared within a tight band (x1.5);
  * perf — wall time / qps / RSS: machine-dependent, compared within a wide
    band (x25 by default, ITM_BENCH_PERF_TOLERANCE overrides) that still
    catches order-of-magnitude regressions on comparable hardware.
"""

import json
import os
import sys

STRUCTURAL = [
    "bench", "tier", "seed", "ases", "links", "routable_prefixes",
    "user_prefixes", "trie_nodes_soa", "snapshot_bytes",
    "client_prefixes", "answer_hash", "queries",
]
LAYOUT = ["bytes_per_prefix_soa"]
PERF = ["generate_s", "build_s", "serve_qps", "serve_p50_us", "serve_p99_us",
        "serve_rollup_us", "delta_apply_us", "peak_rss_bytes"]

LAYOUT_TOLERANCE = 1.5


def load_record(path):
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read().strip()
    if "\n" in text:
        raise SystemExit(f"{path}: expected a single-line JSON record")
    record = json.loads(text)
    if not isinstance(record, dict):
        raise SystemExit(f"{path}: expected a JSON object")
    return record


def check_schema(path, record):
    missing = [k for k in STRUCTURAL + LAYOUT + PERF if k not in record]
    if missing:
        raise SystemExit(f"{path}: missing keys: {', '.join(missing)}")
    for key in LAYOUT + PERF:
        value = record[key]
        if not isinstance(value, (int, float)) or value <= 0:
            raise SystemExit(f"{path}: {key} must be a positive number, "
                             f"got {value!r}")


def within_band(committed, fresh, factor):
    lo, hi = committed / factor, committed * factor
    return lo <= fresh <= hi


def main():
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    committed_path, fresh_path = sys.argv[1], sys.argv[2]
    committed = load_record(committed_path)
    fresh = load_record(fresh_path)
    check_schema(committed_path, committed)
    check_schema(fresh_path, fresh)

    failures = []
    for key in STRUCTURAL:
        if committed[key] != fresh[key]:
            failures.append(f"  {key}: committed {committed[key]!r} != "
                            f"fresh {fresh[key]!r} (must match exactly)")
    for key in LAYOUT:
        if not within_band(committed[key], fresh[key], LAYOUT_TOLERANCE):
            failures.append(
                f"  {key}: fresh {fresh[key]:.1f} outside "
                f"x{LAYOUT_TOLERANCE} band of committed {committed[key]:.1f}")
    perf_tolerance = float(os.environ.get("ITM_BENCH_PERF_TOLERANCE", "25"))
    for key in PERF:
        if not within_band(committed[key], fresh[key], perf_tolerance):
            failures.append(
                f"  {key}: fresh {fresh[key]:.3g} outside "
                f"x{perf_tolerance:g} band of committed {committed[key]:.3g}")

    if failures:
        print(f"BENCH record drift ({fresh_path} vs {committed_path}):")
        print("\n".join(failures))
        print("If the change is intentional, regenerate the committed record:"
              f"\n  build/bench/substrate_scale {committed['tier']} "
              f"{committed_path}")
        raise SystemExit(1)
    print(f"bench record OK: {fresh_path} matches {committed_path} "
          f"({len(STRUCTURAL)} exact, {len(LAYOUT)} layout-band, "
          f"{len(PERF)} perf-band keys)")


if __name__ == "__main__":
    main()
