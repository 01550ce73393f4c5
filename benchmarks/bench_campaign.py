"""Scenario-campaign engine: parallel speedup and the symbolic-cache hit rate.

Serial vs a 4-worker process pool on one deterministic scenario grid
(wall-clock ratio tracks the core count; row-level results are
identical either way), plus the hit rate of the `CandidateUniverse`/
verdict memo caches the serial run keeps warm across its scenarios.
"""

from conftest import run_and_print
from repro.experiments.campaign import build_grid, run_campaign
from repro.symbolic import reset_caches

WORKERS = 4


def _row_key(row):
    return (
        row.family, row.size, row.seed, row.profile, row.iips,
        row.automated_prompts, row.human_prompts, row.verified,
    )


def _campaign_speedup() -> str:
    grid = build_grid(
        ["star", "chain", "ring", "mesh"], [6, 8], seeds=2
    )
    reset_caches()
    serial = run_campaign(grid, workers=1)
    parallel = run_campaign(grid, workers=WORKERS)
    assert [_row_key(row) for row in serial.rows] == [
        _row_key(row) for row in parallel.rows
    ], "parallel campaign diverged from serial"
    speedup = serial.duration_s / max(parallel.duration_s, 1e-9)
    rate = serial.cache_hit_rate
    lines = [
        f"campaign speedup ({len(grid)} scenarios)",
        f"  serial   ( 1 worker ): {serial.duration_s:6.2f}s",
        f"  parallel ({WORKERS:2} workers): {parallel.duration_s:6.2f}s",
        f"  speedup: {speedup:.2f}x",
        f"  warm symbolic cache (serial run): {serial.cache_hits} hits / "
        f"{serial.cache_misses} misses ({100 * (rate or 0):.1f}% hit rate)",
    ]
    for summary in serial.by_family():
        lines.append("  " + summary.render())
    return "\n".join(lines)


def test_campaign_parallel_speedup(benchmark, capsys):
    text = run_and_print(benchmark, capsys, _campaign_speedup)
    assert "speedup:" in text
    assert "verified (100.0%)" in text
    assert "hit rate" in text
