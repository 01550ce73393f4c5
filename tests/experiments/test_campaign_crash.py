"""Batch-engine crash handling: dead pools and hung workers.

A worker that dies hard (SIGKILL, OOM, C-level crash) breaks the whole
``ProcessPoolExecutor``.  The grid must not be lost with a raw
``BrokenProcessPoolError`` traceback: every row journaled before the
crash is kept, a :class:`CampaignInterrupted` names the ``--resume``
invocation, and the resumed campaign converges to artifacts
byte-identical to an uninterrupted run.

Crash injection is a pickle bomb: the victim grid scenario is swapped
for a :class:`Scenario` subclass whose unpickling in the worker SIGKILLs
(or hangs) that process — deterministic under any multiprocessing start
method, no signal/timing races.
"""

import os
import signal
import time
from dataclasses import dataclass
from typing import Any, Callable

import pytest

import repro.experiments.campaign as campaign_module
from repro.experiments.campaign import (
    CampaignInterrupted,
    CampaignStalled,
    Scenario,
    build_grid,
    fold_journal,
    run_campaign,
)

GRID_ARGS = dict(families=["chain", "star"], sizes=[4], seeds=2)


def _grid():
    return build_grid(**GRID_ARGS)


def _artifacts(summary, tmp_path, stem):
    json_path = summary.write_json(tmp_path / f"{stem}.json")
    csv_path = summary.write_csv(tmp_path / f"{stem}.csv")
    return json_path.read_bytes(), csv_path.read_bytes()


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def _hang_self():
    time.sleep(600)


@dataclass(frozen=True)
class _Bomb(Scenario):
    """A grid scenario whose unpickling in a worker runs ``payload()``
    there (the parent only reads its coordinates)."""

    payload: Callable[[], Any] = _kill_self

    def __reduce__(self):
        return (self.payload, ())


def _arm(monkeypatch, victim_key, payload):
    """Swap the victim scenario for a bomb in every grid built through
    the campaign module (the CLI builds its grid there too)."""
    real = campaign_module.build_grid

    def build_armed(*args, **kwargs):
        return [
            _Bomb(**vars(scenario), payload=payload)
            if scenario.key() == victim_key
            else scenario
            for scenario in real(*args, **kwargs)
        ]

    monkeypatch.setattr(campaign_module, "build_grid", build_armed)


def _armed_grid(monkeypatch, payload):
    """The test grid with its last scenario armed.  The last scenario is
    dequeued after earlier ones with workers=2, so rows exist in the
    journal by the time it fires."""
    _arm(monkeypatch, _grid()[-1].key(), payload)
    return campaign_module.build_grid(**GRID_ARGS)


class TestBrokenPool:
    def test_journaled_rows_survive_a_dead_worker(
        self, tmp_path, monkeypatch
    ):
        """The satellite fix: BrokenProcessPoolError no longer aborts
        the grid — journaled work is kept and the error is resumable."""
        grid = _armed_grid(monkeypatch, _kill_self)
        journal = tmp_path / "crash.jsonl"
        victim = grid[-1].key()
        with pytest.raises(CampaignInterrupted) as excinfo:
            run_campaign(grid, workers=2, journal_path=journal)
        assert "--resume" in str(excinfo.value)
        assert str(journal) in str(excinfo.value)
        folded = fold_journal(journal)
        assert folded, "journaled rows were lost with the pool"
        assert victim not in folded

    def test_resume_after_crash_converges_byte_identically(
        self, tmp_path, monkeypatch
    ):
        journal = tmp_path / "crash.jsonl"
        with pytest.raises(CampaignInterrupted):
            run_campaign(
                _armed_grid(monkeypatch, _kill_self),
                workers=2,
                journal_path=journal,
            )
        grid = _grid()  # disarmed: the real scenarios
        resumed = run_campaign(
            grid, workers=2, journal_path=journal, resume=True
        )
        assert not resumed.incomplete
        baseline = run_campaign(grid, workers=1)
        assert _artifacts(resumed, tmp_path, "resumed") == _artifacts(
            baseline, tmp_path, "baseline"
        )

    def test_crash_without_journal_explains_the_loss(
        self, tmp_path, monkeypatch
    ):
        grid = _armed_grid(monkeypatch, _kill_self)
        with pytest.raises(CampaignInterrupted) as excinfo:
            run_campaign(grid, workers=2)
        message = str(excinfo.value)
        assert "no journal" in message
        assert "--journal" in message

    def test_interrupted_error_carries_progress(
        self, tmp_path, monkeypatch
    ):
        grid = _armed_grid(monkeypatch, _kill_self)
        journal = tmp_path / "crash.jsonl"
        with pytest.raises(CampaignInterrupted) as excinfo:
            run_campaign(grid, workers=2, journal_path=journal)
        error = excinfo.value
        assert error.journal == journal
        assert error.total == len(grid)
        assert 0 <= error.completed < len(grid)


class TestStalledPool:
    def test_hung_worker_raises_stalled_instead_of_hanging(
        self, tmp_path, monkeypatch
    ):
        """One sleeping worker must not stall the grid forever: the
        per-wait timeout raises CampaignStalled (a CampaignInterrupted,
        so the same --resume guidance applies) and the pool is killed
        rather than joined."""
        grid = _armed_grid(monkeypatch, _hang_self)
        journal = tmp_path / "stall.jsonl"
        started = time.monotonic()
        with pytest.raises(CampaignStalled) as excinfo:
            run_campaign(grid, workers=2, journal_path=journal, timeout=3.0)
        # well under the 600s hang: the pool was killed, not joined
        assert time.monotonic() - started < 60
        assert "--resume" in str(excinfo.value)
        assert isinstance(excinfo.value, CampaignInterrupted)
        assert fold_journal(journal)

    def test_cli_maps_interrupted_to_exit_code_3(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        grid_flags = [
            "--families", "chain,star", "--sizes", "4", "--seeds", "2",
        ]
        journal = tmp_path / "stall.jsonl"
        _arm(monkeypatch, _grid()[-1].key(), _hang_self)
        code = main([
            "campaign", *grid_flags, "--workers", "2", "--timeout", "3",
            "--journal", str(journal), "--json", "-",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "--resume" in err


class TestTrailingNewlineRepair:
    def test_truncated_tail_repaired_even_under_a_different_grid(
        self, tmp_path
    ):
        """Appending repairs a crash-truncated final line *always*, not
        only when resuming the same grid: resuming under a different
        grid appends a fresh header, which must not land on the
        fragment and corrupt both lines."""
        journal = tmp_path / "truncated.jsonl"
        run_campaign(build_grid(["star"], [4], seeds=1), journal_path=journal)
        original = journal.read_text()
        assert original.endswith("\n")
        journal.write_text(original[:-20])  # mid-record crash truncation

        resumed = run_campaign(
            _grid(), journal_path=journal, resume=True
        )
        assert not resumed.incomplete
        lines = journal.read_text().splitlines()
        # every line parses: the fresh header went onto its own line
        import json

        for line in lines:
            try:
                json.loads(line)
            except json.JSONDecodeError:
                # exactly one fragment is tolerated mid-file (the
                # truncated record), never a fused header
                assert "campaign" not in line or not line.startswith("{")
        baseline = run_campaign(_grid(), workers=1)
        assert _artifacts(resumed, tmp_path, "resumed") == _artifacts(
            baseline, tmp_path, "baseline"
        )
