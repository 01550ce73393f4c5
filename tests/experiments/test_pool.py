"""The shared worker pool: results, deaths, hangs, respawns, inline mode.

Hangs are caught by a progress deadline the parent measures — the time
since the in-flight unit's dispatch or its previous result — so a
worker that is alive but stuck cannot look healthy.  The hang test runs
under ``spawn``, the start method the campaign service uses.
"""

import os
import signal
import time

import pytest

import repro.experiments.campaign as campaign_module
from repro.experiments.campaign import (
    CampaignInterrupted,
    CampaignStalled,
    build_grid,
    fold_journal,
    run_campaign,
)
from repro.experiments.pool import Lost, Result, WorkerPool

from .test_campaign_crash import _arm, _hang_self, _kill_self

DEADLINE_S = 2.0

_GREETING = None


def _greet(text):
    global _GREETING
    _GREETING = text


def _nap(seconds):
    """Sleep, then report what this worker's initializer set."""
    time.sleep(seconds)
    return _GREETING


def _die_on_negative(number):
    if number < 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return number * 10


def _timed_events(pool, units):
    return [(time.monotonic(), event) for event in pool.run(units)]


class TestHangs:
    def test_spawned_hung_worker_is_killed_within_the_deadline(self):
        """A worker sleeping through its unit yields no result, so it is
        killed once the deadline passes, its unit comes back lost, and
        the respawned worker (initializer re-run) serves the next unit."""
        with WorkerPool(
            _nap,
            1,
            initializer=_greet,
            initargs=("hello",),
            deadline_s=DEADLINE_S,
            context="spawn",
        ) as pool:
            timed = _timed_events(pool, [("napper", [0.0, 600.0])])
            assert [event for _, event in timed] == [
                Result("napper", 0, "hello"),
                Lost("napper", 0, "hang", f"no result within {DEADLINE_S:g}s"),
            ]
            (first_at, _), (lost_at, _) = timed
            assert DEADLINE_S - 0.05 <= lost_at - first_at < DEADLINE_S + 10
            worker = pool.workers[0]
            assert worker.generation == 2 and worker.process.is_alive()
            assert list(pool.run([("again", [0.0])])) == [
                Result("again", 0, "hello")
            ]

    def test_the_deadline_restarts_at_every_result(self):
        """Progress, not unit length, is what the deadline measures: a
        unit longer than the deadline whose results keep coming is not a
        hang."""
        naps = [DEADLINE_S / 3] * 4
        with WorkerPool(_nap, 1, deadline_s=DEADLINE_S) as pool:
            events = list(pool.run([("steady", naps)]))
        assert events == [Result("steady", 0, None)] * len(naps)


class TestDeaths:
    def test_a_killed_worker_loses_only_its_unit(self):
        units = [("a", [1]), ("b", [-1]), ("c", [2]), ("d", [3])]
        with WorkerPool(_die_on_negative, 2) as pool:
            events = list(pool.run(units))
            generations = sorted(worker.generation for worker in pool.workers)
        results = {event.tag: event.value for event in events
                   if isinstance(event, Result)}
        lost = [event for event in events if isinstance(event, Lost)]
        assert results == {"a": 10, "c": 20, "d": 30}
        assert [(event.tag, event.reason) for event in lost] == [
            ("b", "killed")
        ]
        assert lost[0].detail == "worker died (signal SIGKILL)"
        assert generations == [1, 2]


class TestInline:
    def test_zero_workers_run_in_the_calling_process(self):
        with WorkerPool(
            lambda item: (item, os.getpid()),
            0,
            initializer=_greet,
            initargs=("never",),
            deadline_s=DEADLINE_S,
        ) as pool:
            events = list(pool.run([("x", [1, 2])]))
        assert events == [
            Result("x", 0, (1, os.getpid())),
            Result("x", 0, (2, os.getpid())),
        ]
        assert _GREETING is None  # inline runs no initializer


class TestCampaignDrains:
    @pytest.mark.parametrize(
        "payload, error",
        [(_kill_self, CampaignInterrupted), (_hang_self, CampaignStalled)],
    )
    def test_the_grid_runs_on_past_a_lost_scenario(
        self, tmp_path, monkeypatch, payload, error
    ):
        """The first scenario's worker dies or hangs: every other
        scenario still runs and is journaled before the campaign raises,
        and the error names the lost scenario."""
        grid_args = dict(families=["chain", "star"], sizes=[4], seeds=2)
        keys = [scenario.key() for scenario in build_grid(**grid_args)]
        _arm(monkeypatch, keys[0], payload)
        journal = tmp_path / "drain.jsonl"
        with pytest.raises(error) as excinfo:
            run_campaign(
                campaign_module.build_grid(**grid_args),
                workers=2,
                journal_path=journal,
                timeout=5.0,
            )
        assert type(excinfo.value) is error
        assert keys[0] in str(excinfo.value)
        assert sorted(fold_journal(journal)) == sorted(keys[1:])
        assert excinfo.value.completed == len(keys) - 1
