#!/usr/bin/env python
"""Diff two pytest-benchmark JSON runs and fail on hot-path regressions.

Usage
-----
::

    # capture a baseline, make changes, capture again, then compare:
    pytest benchmarks/bench_kernels.py --benchmark-only \
        --benchmark-json=baseline.json
    pytest benchmarks/bench_kernels.py --benchmark-only \
        --benchmark-json=current.json
    python benchmarks/compare.py baseline.json current.json

    # or via make:
    make bench-baseline && make bench-compare

Benchmarks are matched by fully-qualified name; each one whose current
min time exceeds ``baseline * (1 + threshold)`` counts as a regression
and the script exits non-zero (CI-friendly).  Min time is used because
it is the least noisy statistic for micro-benchmarks.  Benchmarks that
record ``extra_info["peak_rss_mb"]`` (the memory-guarded streaming
trace replay) are additionally compared on peak RSS with their own
threshold (``--rss-threshold``).  Benchmarks only
present on one side are reported but never fail the run — except the
``REQUIRED_BENCHMARKS``, which must appear in the current run.

CI integration: when ``$GITHUB_STEP_SUMMARY`` is set (GitHub Actions
sets it for every step), a per-benchmark markdown table is appended to
that file so the comparison shows up on the workflow summary page.
Locally — where that variable is unset — nothing is written anywhere
unless ``--summary PATH`` asks for the same markdown explicitly
(``make bench-compare BENCH_SUMMARY=path.md``); an unset, empty, or
whitespace-only variable never creates a file.
``--allow-missing-baseline`` turns an absent baseline *file* into a
clean skip (exit 0) instead of an error, so the gate can run on PRs
before any main-branch baseline artifact exists.

``--record PATH`` trims a run into a committed-friendly snapshot —
sorted ``{name: {min_s, peak_rss_mb?}}``, no machine info, no
timestamps — so the repo can carry a perf trajectory file
(``make bench-record`` writes ``BENCH_baseline.json``).  Snapshots
load anywhere a raw pytest-benchmark JSON does, so one can sit on
either side of a comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

#: Default regression budget for the bench_kernels hot-path suite.
DEFAULT_THRESHOLD = 0.20

#: Default regression budget for peak-RSS figures (``extra_info``
#: ``peak_rss_mb``, recorded by memory-guarded benchmarks such as the
#: streaming trace replay).  Memory is less noisy than wall time but a
#: chunk-size bump legitimately moves it, so the budget is a bit wider.
DEFAULT_RSS_THRESHOLD = 0.30

#: Hot-path benchmarks the gate insists on seeing in the *current* run.
#: A guarded kernel that silently vanishes from the suite (renamed,
#: skipped, collection error) would otherwise stop being compared at
#: all; listing it here turns that into a gate failure.
REQUIRED_BENCHMARKS = (
    "test_engine_throughput_2k_jobs",
    "test_tiered_fleet_throughput",
    "test_workload_generation_2k",
    "test_event_loop_throughput",
    "test_migration_throughput_1k_jobs",
    "test_migration_reeval_tick",
    "test_migration_reeval_tick_small",
    "test_migration_reeval_multi_tick",
    "test_migration_segment_settle_10k",
    "test_faas_settlement_5k_records",
    "test_sweep_short_runs_kernel_cache",
    "test_swf_stream_1m_jobs",
)


def load_benchmarks(
    path: Path, only: str | None
) -> tuple[dict[str, float], dict[str, float]]:
    """``(fullname -> min seconds, fullname -> peak RSS MB)`` for one
    pytest-benchmark JSON file.

    The RSS map only carries benchmarks that recorded
    ``extra_info["peak_rss_mb"]`` — most micro-benchmarks do not, and
    their absence from either side never fails the gate.

    Accepts both raw pytest-benchmark output (``benchmarks`` is a list
    of stat records) and the trimmed ``--record`` snapshot format
    (``benchmarks`` is a ``{name: {min_s, peak_rss_mb?}}`` mapping).
    """
    with open(path) as fh:
        data = json.load(fh)
    times: dict[str, float] = {}
    rss: dict[str, float] = {}
    benches = data.get("benchmarks", [])
    if isinstance(benches, dict):  # committed snapshot (--record)
        for name, entry in benches.items():
            if only and only not in name:
                continue
            times[name] = float(entry["min_s"])
            if "peak_rss_mb" in entry:
                rss[name] = float(entry["peak_rss_mb"])
        return times, rss
    for bench in benches:
        name = bench.get("fullname") or bench["name"]
        if only and only not in name:
            continue
        times[name] = float(bench["stats"]["min"])
        extra = bench.get("extra_info") or {}
        if "peak_rss_mb" in extra:
            rss[name] = float(extra["peak_rss_mb"])
    return times, rss


#: Identity tag written into ``--record`` snapshots.
SNAPSHOT_FORMAT = "repro-bench-snapshot-v1"


def snapshot_payload(
    times: dict[str, float], rss: dict[str, float]
) -> dict:
    """The committed-friendly snapshot document: sorted names, min
    seconds, peak RSS where recorded — and nothing machine- or
    time-stamped, so diffs carry only performance changes."""
    benchmarks: dict[str, dict[str, float]] = {}
    for name in sorted(times):
        entry: dict[str, float] = {"min_s": times[name]}
        if name in rss:
            entry["peak_rss_mb"] = rss[name]
        benchmarks[name] = entry
    return {"format": SNAPSHOT_FORMAT, "benchmarks": benchmarks}


def compare(
    baseline: dict[str, float],
    current: dict[str, float],
    threshold: float,
) -> tuple[list[str], list[str]]:
    """Returns (report lines, regressed benchmark names)."""
    lines = []
    regressions = []
    width = max((len(n) for n in {*baseline, *current}), default=10)
    lines.append(
        f"{'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  {'ratio':>7}"
    )
    for name in sorted({*baseline, *current}):
        base = baseline.get(name)
        cur = current.get(name)
        if base is None:
            lines.append(f"{name:<{width}}  {'-':>12}  {cur:>12.6f}  {'new':>7}")
            continue
        if cur is None:
            lines.append(f"{name:<{width}}  {base:>12.6f}  {'-':>12}  {'gone':>7}")
            continue
        ratio = cur / base if base > 0 else float("inf")
        flag = ""
        if cur > base * (1.0 + threshold):
            flag = "  << REGRESSION"
            regressions.append(name)
        lines.append(
            f"{name:<{width}}  {base:>12.6f}  {cur:>12.6f}  {ratio:>6.2f}x{flag}"
        )
    return lines, regressions


def compare_rss(
    baseline: dict[str, float],
    current: dict[str, float],
    threshold: float,
) -> tuple[list[str], list[str]]:
    """Peak-RSS counterpart of :func:`compare`.

    Returns ``([], [])`` when neither run recorded RSS figures, so the
    gate's output is unchanged for time-only suites.  A benchmark with
    RSS on only one side is reported but never fails (same contract as
    unguarded time benchmarks).
    """
    if not baseline and not current:
        return [], []
    lines = []
    regressions = []
    width = max((len(n) for n in {*baseline, *current}), default=10)
    lines.append("")
    lines.append(
        f"{'peak RSS (MB)':<{width}}  {'baseline':>12}  {'current':>12}  {'ratio':>7}"
    )
    for name in sorted({*baseline, *current}):
        base = baseline.get(name)
        cur = current.get(name)
        if base is None:
            lines.append(f"{name:<{width}}  {'-':>12}  {cur:>12.1f}  {'new':>7}")
            continue
        if cur is None:
            lines.append(f"{name:<{width}}  {base:>12.1f}  {'-':>12}  {'gone':>7}")
            continue
        ratio = cur / base if base > 0 else float("inf")
        flag = ""
        if cur > base * (1.0 + threshold):
            flag = "  << RSS REGRESSION"
            regressions.append(name)
        lines.append(
            f"{name:<{width}}  {base:>12.1f}  {cur:>12.1f}  {ratio:>6.2f}x{flag}"
        )
    return lines, regressions


def markdown_summary(
    baseline: dict[str, float],
    current: dict[str, float],
    threshold: float,
    missing: list[str],
    baseline_rss: dict[str, float] | None = None,
    current_rss: dict[str, float] | None = None,
    rss_threshold: float = DEFAULT_RSS_THRESHOLD,
) -> str:
    """Per-benchmark markdown table for the GitHub step summary."""
    lines = [
        "### Benchmark comparison",
        "",
        f"Regression threshold: +{threshold:.0%} over baseline min time.",
        "",
        "| benchmark | baseline (s) | current (s) | ratio | status |",
        "| --- | ---: | ---: | ---: | --- |",
    ]
    for name in sorted({*baseline, *current}):
        short = name.rsplit("::", 1)[-1]
        base = baseline.get(name)
        cur = current.get(name)
        if base is None:
            lines.append(f"| {short} | - | {cur:.6f} | - | new |")
            continue
        if cur is None:
            lines.append(f"| {short} | {base:.6f} | - | - | gone |")
            continue
        ratio = cur / base if base > 0 else float("inf")
        status = (
            ":x: regression"
            if cur > base * (1.0 + threshold)
            else ":white_check_mark: ok"
        )
        lines.append(
            f"| {short} | {base:.6f} | {cur:.6f} | {ratio:.2f}x | {status} |"
        )
    baseline_rss = baseline_rss or {}
    current_rss = current_rss or {}
    if baseline_rss or current_rss:
        lines += [
            "",
            "#### Peak RSS",
            "",
            f"Regression threshold: +{rss_threshold:.0%} over baseline peak RSS.",
            "",
            "| benchmark | baseline (MB) | current (MB) | ratio | status |",
            "| --- | ---: | ---: | ---: | --- |",
        ]
        for name in sorted({*baseline_rss, *current_rss}):
            short = name.rsplit("::", 1)[-1]
            base = baseline_rss.get(name)
            cur = current_rss.get(name)
            if base is None:
                lines.append(f"| {short} | - | {cur:.1f} | - | new |")
                continue
            if cur is None:
                lines.append(f"| {short} | {base:.1f} | - | - | gone |")
                continue
            ratio = cur / base if base > 0 else float("inf")
            status = (
                ":x: regression"
                if cur > base * (1.0 + rss_threshold)
                else ":white_check_mark: ok"
            )
            lines.append(
                f"| {short} | {base:.1f} | {cur:.1f} | {ratio:.2f}x | {status} |"
            )
    if missing:
        lines += [
            "",
            ":x: guarded benchmark(s) missing from the current run: "
            + ", ".join(missing),
        ]
    return "\n".join(lines) + "\n"


def summary_destination(explicit: str | None) -> str | None:
    """Where the markdown summary goes, or ``None`` for nowhere.

    An explicit ``--summary`` path wins; otherwise ``$GITHUB_STEP_SUMMARY``
    is used when it is set to a real path.  Unset, empty, or
    whitespace-only values mean "no summary" — a local
    ``make bench-compare`` must never create a stray file just because
    the CI variable leaked into the environment half-configured.
    """
    for candidate in (explicit, os.environ.get("GITHUB_STEP_SUMMARY")):
        if candidate and candidate.strip():
            return candidate
    return None


def append_summary(text: str, path: str | None) -> None:
    """Append markdown to ``path`` (no-op when ``None``)."""
    if path is None:
        return
    try:
        with open(path, "a") as fh:
            fh.write(text)
    except OSError as err:  # never fail the gate over a summary file
        print(f"cannot append summary to {path!r}: {err}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when hot-path benchmarks regress beyond a threshold"
    )
    parser.add_argument("baseline", type=Path, help="baseline --benchmark-json file")
    parser.add_argument(
        "current",
        type=Path,
        nargs="?",
        default=None,
        help="current --benchmark-json file (optional with --record, "
        "which reads the first file)",
    )
    parser.add_argument(
        "--record",
        type=Path,
        default=None,
        metavar="PATH",
        help="instead of comparing, trim the given run into a "
        "committed-friendly snapshot ({name: {min_s, peak_rss_mb?}}, "
        "no machine info or timestamps) at PATH; refuses to record a "
        "run missing any guarded benchmark",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="allowed relative slowdown (default 0.20 = +20%%)",
    )
    parser.add_argument(
        "--rss-threshold",
        type=float,
        default=DEFAULT_RSS_THRESHOLD,
        help="allowed relative peak-RSS growth for benchmarks that "
        "record extra_info peak_rss_mb (default 0.30 = +30%%)",
    )
    parser.add_argument(
        "--only",
        default="bench_kernels",
        help="substring filter on benchmark fullnames "
        "(default: the bench_kernels hot-path suite; '' = everything)",
    )
    parser.add_argument(
        "--allow-missing-baseline",
        action="store_true",
        help="exit 0 with a skip notice when the baseline file does not "
        "exist (fresh checkouts / PRs before a main-branch baseline "
        "artifact has been recorded)",
    )
    parser.add_argument(
        "--summary",
        default=None,
        metavar="PATH",
        help="append the markdown comparison table to PATH (wins over "
        "$GITHUB_STEP_SUMMARY; by default nothing is written when that "
        "variable is unset, e.g. local runs)",
    )
    args = parser.parse_args(argv)
    summary_path = summary_destination(args.summary)

    if args.record is not None:
        source = args.current or args.baseline
        try:
            times, rss = load_benchmarks(source, args.only or None)
        except (OSError, json.JSONDecodeError) as err:
            print(f"cannot read benchmark JSON: {err}", file=sys.stderr)
            return 2
        absent = [
            required
            for required in REQUIRED_BENCHMARKS
            if not any(required in name for name in times)
        ]
        if absent:
            print(
                "refusing to record a snapshot missing guarded "
                "benchmarks: " + ", ".join(absent),
                file=sys.stderr,
            )
            return 1
        args.record.write_text(
            json.dumps(snapshot_payload(times, rss), indent=2) + "\n"
        )
        print(f"recorded {len(times)} benchmarks -> {args.record}")
        return 0

    if args.current is None:
        parser.error("current benchmark file is required unless --record is given")

    if args.allow_missing_baseline and not args.baseline.exists():
        note = (
            f"bench-compare: no baseline at {args.baseline} — skipping "
            "comparison (it is recorded on main-branch pushes)."
        )
        print(note)
        append_summary(f"### Benchmark comparison\n\n{note}\n", summary_path)
        return 0

    try:
        baseline, baseline_rss = load_benchmarks(args.baseline, args.only or None)
        current, current_rss = load_benchmarks(args.current, args.only or None)
    except (OSError, json.JSONDecodeError) as err:
        print(f"cannot read benchmark JSON: {err}", file=sys.stderr)
        return 2
    if not baseline and not current:
        print(f"no benchmarks matching {args.only!r} in either file", file=sys.stderr)
        return 2

    missing = [
        required
        for required in REQUIRED_BENCHMARKS
        if not any(required in name for name in current)
    ]

    lines, regressions = compare(baseline, current, args.threshold)
    rss_lines, rss_regressions = compare_rss(
        baseline_rss, current_rss, args.rss_threshold
    )
    print("\n".join(lines + rss_lines))
    append_summary(
        markdown_summary(
            baseline,
            current,
            args.threshold,
            missing,
            baseline_rss,
            current_rss,
            args.rss_threshold,
        ),
        summary_path,
    )
    if missing:
        print(
            f"\n{len(missing)} guarded benchmark(s) missing from the "
            "current run: " + ", ".join(missing),
            file=sys.stderr,
        )
        return 1
    if regressions or rss_regressions:
        if regressions:
            print(
                f"\n{len(regressions)} benchmark(s) slower than baseline "
                f"by more than {args.threshold:.0%}: " + ", ".join(regressions),
                file=sys.stderr,
            )
        if rss_regressions:
            print(
                f"\n{len(rss_regressions)} benchmark(s) with peak RSS above "
                f"baseline by more than {args.rss_threshold:.0%}: "
                + ", ".join(rss_regressions),
                file=sys.stderr,
            )
        return 1
    print(f"\nok: no benchmark regressed by more than {args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
