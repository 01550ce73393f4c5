"""The asyncio scheduler: shards, persistent workers, retries, state dir.

:class:`CampaignService` drives one
:class:`~repro.experiments.pool.WorkerPool` of persistent ``spawn``
workers (fork from an asyncio/multi-threaded parent is unsafe).  Each
campaign grid is cut into contiguous *work units*; a worker runs one
unit at a time, so a dead or hung worker forfeits exactly one unit and
the scheduler knows which.  The event loop polls the pool without
blocking, journals every scenario result as it arrives, and dispatches
pending units to idle workers.  A unit whose worker dies, or that
yields no scenario result within ``stall_timeout_s`` (measured by the
parent — a hung worker cannot fake progress), comes back from the pool
and is resubmitted under the retry budget, skipping the scenarios it
already journaled.

Everything durable lives in the state directory::

    <state_dir>/<campaign id>/spec.json        submission + materialized grid
    <state_dir>/<campaign id>/manifest.jsonl   header-only journal (grid keys)
    <state_dir>/<campaign id>/shard-NN.jsonl   one journal per worker slot

A scenario's journal line is appended and flushed to its worker slot's
shard *before* the scheduler counts it done, so in-memory progress is
never ahead of the disk.  On startup the service folds every campaign's
shards and resubmits only the missing scenarios — a grid survives
worker SIGKILLs, hangs *and* full service restarts, and ``repro
campaign --report <campaign dir>`` renders artifacts byte-identical to
an uninterrupted batch run.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import signal
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from ..experiments.campaign import (
    CampaignSummary,
    CompletedScenario,
    Scenario,
    execute_scenario,
    fold_journal,
    journal_header,
    journal_line,
    service_journals,
    summary_from_journals,
)
from ..experiments.journal import append_line, open_journal
from ..experiments.pool import Lost, Result, WorkerPool
from ..obs import counters_snapshot
from ..obs import merge as metrics_merge
from ..obs import render_prometheus, sanitize_metric_name
from ..symbolic.memo import memo_totals
from .spec import CampaignSpec, shard_scenarios, spec_fingerprint

__all__ = ["CampaignService", "CampaignState", "WorkUnit"]

_LOGGER = logging.getLogger(__name__)

SPEC_FILENAME = "spec.json"
MANIFEST_FILENAME = "manifest.jsonl"
# Seconds the event loop sleeps between non-blocking pool polls.
_POLL_S = 0.02


def _run_scenario(
    item: Tuple[Scenario, bool]
) -> Tuple[CompletedScenario, Dict[str, float]]:
    """Worker side: one scenario, plus the worker's cumulative registry
    snapshot for ``/healthz``.  A ``chaos`` item SIGKILLs the worker
    first — dying exactly the way the scheduler must survive: no
    cleanup, no goodbye, mid-unit."""
    scenario, chaos = item
    if chaos:
        os.kill(os.getpid(), signal.SIGKILL)
    return execute_scenario(scenario), counters_snapshot()


def _metric_summary(metrics: Dict[str, float]) -> Dict[str, Any]:
    """A compact per-worker digest of a cumulative registry snapshot,
    small enough to inline in ``/healthz`` and ``repro status``."""
    cache_hits, cache_misses = memo_totals(metrics)
    return {
        "scenarios": int(metrics.get("phase.scenario.count", 0)),
        "scenario_time_s": round(
            float(metrics.get("phase.scenario.total_s", 0.0)), 3
        ),
        "routes_built": int(metrics.get("route.routes_built", 0)),
        "cache_hits": cache_hits,
        "cache_misses": cache_misses,
    }


@dataclass
class WorkUnit:
    """One contiguous grid slice: the unit of dispatch and retry."""

    index: int
    scenarios: List[Scenario]
    state: str = "pending"  # pending | running | done | failed
    attempts: int = 0  # dispatches so far (1 = first run, no retry yet)
    done_keys: Set[str] = field(default_factory=set)
    slot: Optional[int] = None  # the worker running it

    @property
    def keys(self) -> List[str]:
        return [scenario.key() for scenario in self.scenarios]

    @property
    def remaining(self) -> int:
        return sum(1 for key in self.keys if key not in self.done_keys)


@dataclass
class CampaignState:
    """One submitted campaign: its grid, units, and progress."""

    id: str
    spec: CampaignSpec
    grid: List[Scenario]
    shard_size: int
    directory: Path
    units: List[WorkUnit]
    resumed: int = 0  # keys recovered from shard journals at (re)load
    retries: int = 0  # resubmissions after worker death or stall
    error_keys: Set[str] = field(default_factory=set)
    # The campaign's merged registry delta: one per-scenario delta folded
    # per *distinct* key (rows are deduplicated against done_keys before
    # merging, so a unit resubmitted after a worker death cannot
    # double-count a scenario; journal-recovered rows fold in at load).
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return len(self.grid)

    @property
    def completed(self) -> int:
        return sum(len(unit.done_keys) for unit in self.units)

    @property
    def state(self) -> str:
        if all(unit.state == "done" for unit in self.units):
            return "done"
        if any(unit.state in ("pending", "running") for unit in self.units):
            return "running"
        return "failed"  # nothing left to schedule, but units failed

    def status(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "state": self.state,
            "total": self.total,
            "completed": self.completed,
            "errors": len(self.error_keys),
            "resumed": self.resumed,
            "retries": self.retries,
            "shard_size": self.shard_size,
            "units": [
                {
                    "unit": unit.index,
                    "state": unit.state,
                    "size": len(unit.scenarios),
                    "done": len(unit.done_keys),
                    "attempts": unit.attempts,
                    "slot": unit.slot,
                }
                for unit in self.units
            ],
        }


class CampaignService:
    """The long-running scheduler behind ``repro serve``."""

    def __init__(
        self,
        state_dir: "Path | str",
        workers: int = 2,
        retry_limit: int = 2,
        stall_timeout_s: Optional[float] = 60.0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.state_dir = Path(state_dir)
        self.workers = workers
        self.retry_limit = retry_limit
        self.stall_timeout_s = stall_timeout_s
        self.started_at = time.monotonic()
        self._pool: Optional[WorkerPool] = None
        # Latest cumulative registry snapshot per worker slot, shipped
        # with each scenario result (dropped when its worker is lost).
        self._worker_snapshots: Dict[int, Dict[str, float]] = {}
        self._campaigns: Dict[str, CampaignState] = {}
        self._stop_event: Optional[asyncio.Event] = None

    # -- lifecycle -------------------------------------------------------------

    async def run(self) -> None:
        """Serve until :meth:`request_stop` — the asyncio main loop.

        Reloads persisted campaigns, spawns the worker pool, and pumps
        it; on exit the workers stop, and in-flight units stay journaled
        up to their last finished scenario and resume on the next run.
        """
        self._stop_event = asyncio.Event()
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self._load_campaigns()
        # Workers need no initializer: the engine has no process-global
        # options, and service scenarios run neither traced nor linted.
        self._pool = WorkerPool(
            _run_scenario,
            self.workers,
            deadline_s=self.stall_timeout_s,
            context="spawn",
        )
        try:
            while not self._stop_event.is_set():
                self._pump()
                try:
                    await asyncio.wait_for(
                        self._stop_event.wait(), timeout=_POLL_S
                    )
                except asyncio.TimeoutError:
                    pass
        finally:
            self._pool.close()

    def request_stop(self) -> None:
        if self._stop_event is not None:
            self._stop_event.set()

    # -- submission & queries --------------------------------------------------

    def submit(self, spec: CampaignSpec) -> CampaignState:
        """Validate, persist, and enqueue a campaign; returns its state.

        Everything needed to finish the campaign after a crash is on
        disk before this returns: the materialized grid in
        ``spec.json`` and the grid-ordered manifest header the offline
        report merges shards under.
        """
        grid = spec.build()  # ValueError on bad axes, same as batch CLI
        if not grid:
            raise ValueError("campaign grid is empty")
        shard_size = spec.resolve_shard_size(len(grid), self.workers)
        campaign_id = self._next_id()
        directory = self.state_dir / campaign_id
        directory.mkdir(parents=True)
        (directory / SPEC_FILENAME).write_text(
            json.dumps(
                {
                    "id": campaign_id,
                    "spec": spec.to_dict(),
                    "shard_size": shard_size,
                    "grid": [asdict(scenario) for scenario in grid],
                },
                indent=2,
            )
            + "\n"
        )
        manifest = directory / MANIFEST_FILENAME
        with open_journal(manifest, append=False) as handle:
            append_line(handle, journal_header(grid))
        state = CampaignState(
            id=campaign_id,
            spec=spec,
            grid=grid,
            shard_size=shard_size,
            directory=directory,
            units=[
                WorkUnit(index=index, scenarios=slice_)
                for index, slice_ in enumerate(
                    shard_scenarios(grid, shard_size)
                )
            ],
        )
        self._campaigns[campaign_id] = state
        _LOGGER.info(
            "campaign %s submitted (spec %s): %d scenario(s) in %d unit(s)",
            campaign_id, spec_fingerprint(spec), state.total, len(state.units),
        )
        return state

    def campaign(self, campaign_id: str) -> CampaignState:
        try:
            return self._campaigns[campaign_id]
        except KeyError:
            raise ValueError(f"unknown campaign {campaign_id!r}") from None

    def campaign_ids(self) -> List[str]:
        return sorted(self._campaigns)

    def status(self, campaign_id: str) -> Dict[str, Any]:
        return self.campaign(campaign_id).status()

    def workers_status(self) -> List[Dict[str, Any]]:
        """One entry per worker slot.  ``heartbeat_age_s`` is how long
        the slot's in-flight unit has gone without a scenario result
        (0 when idle) — the age the stall deadline is measured on."""
        now = time.monotonic()
        return [
            {
                "slot": worker.slot,
                "pid": worker.process.pid,
                "alive": worker.process.is_alive(),
                "generation": worker.generation,
                "restarts": max(0, worker.generation - 1),
                "heartbeat_age_s": round(
                    now - worker.last_progress
                    if worker.tag is not None else 0.0,
                    3,
                ),
                "queue_depth": len(worker.pending),
                "unit": (
                    f"{worker.tag[0]}:{worker.tag[1]}"
                    if worker.tag is not None else None
                ),
                "metrics": _metric_summary(
                    self._worker_snapshots.get(worker.slot, {})
                ),
            }
            for worker in (self._pool.workers if self._pool else [])
        ]

    def service_health(self) -> Dict[str, Any]:
        """The ``/healthz`` payload: liveness, uptime, version, per-worker
        progress ages and metric summaries."""
        from .. import __version__

        return {
            "ok": True,
            "version": __version__,
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "campaigns": len(self.campaign_ids()),
            "workers": self.workers_status(),
        }

    def campaign_metrics(self) -> Dict[str, float]:
        """Every campaign's merged per-scenario registry deltas — each
        journaled scenario counted exactly once, so for settled campaigns
        these equal the journal-folded totals."""
        return metrics_merge(
            {}, *(state.metrics for state in self._campaigns.values())
        )

    def metrics_samples(self) -> List[Tuple[str, Optional[Dict[str, str]], float, str]]:
        """Everything ``GET /metrics`` exposes, as Prometheus samples."""
        now = time.monotonic()
        uptime_s = max(now - self.started_at, 1e-9)
        completed = sum(
            state.completed for state in self._campaigns.values()
        )
        errors = sum(
            len(state.error_keys) for state in self._campaigns.values()
        )
        pending_units = sum(
            1
            for state in self._campaigns.values()
            for unit in state.units
            if unit.state == "pending"
        )
        retries = sum(state.retries for state in self._campaigns.values())
        workers = self.workers_status()
        samples: List[Tuple[str, Optional[Dict[str, str]], float, str]] = [
            ("repro_service_uptime_seconds", None, uptime_s, "gauge"),
            ("repro_service_workers", None, self.workers, "gauge"),
            ("repro_service_campaigns", None, len(self._campaigns), "gauge"),
            ("repro_service_inflight_units", None,
             sum(1 for worker in workers if worker["unit"] is not None),
             "gauge"),
            ("repro_service_pending_units", None, pending_units, "gauge"),
            ("repro_scenarios_completed_total", None, completed, "counter"),
            ("repro_scenario_errors_total", None, errors, "counter"),
            ("repro_unit_retries_total", None, retries, "counter"),
            (
                "repro_scenarios_per_second",
                None,
                completed / uptime_s,
                "gauge",
            ),
        ]
        for worker in workers:
            labels = {"slot": str(worker["slot"])}
            samples.extend(
                [
                    ("repro_worker_alive", labels, 1 if worker["alive"] else 0,
                     "gauge"),
                    ("repro_worker_heartbeat_age_seconds", labels,
                     worker["heartbeat_age_s"], "gauge"),
                    ("repro_worker_restarts_total", labels,
                     worker["restarts"], "counter"),
                    ("repro_worker_queue_depth", labels,
                     worker["queue_depth"], "gauge"),
                    ("repro_worker_inflight_units", labels,
                     1 if worker["unit"] is not None else 0, "gauge"),
                ]
            )
        # The campaign-folded registry series (exactly-once per scenario:
        # these match what `campaign --report <dir>` folds from journals).
        folded = self.campaign_metrics()
        for name in sorted(folded):
            kind = "gauge" if name.endswith(".max_s") else "counter"
            samples.append(
                (f"repro_{sanitize_metric_name(name)}", None, folded[name],
                 kind)
            )
        return samples

    def prometheus_text(self) -> str:
        return render_prometheus(self.metrics_samples())

    def journals(self, campaign_id: str) -> List[Path]:
        """Manifest + existing shard journals, manifest first (the
        merge order that reproduces batch-run row order)."""
        return service_journals(self.campaign(campaign_id).directory)

    def result(self, campaign_id: str) -> Tuple[CampaignSummary, bool]:
        """The merged summary *right now* — streamable mid-run — plus
        whether the campaign is complete."""
        state = self.campaign(campaign_id)
        summary = summary_from_journals(self.journals(campaign_id))
        return summary, state.state == "done"

    # -- internals -------------------------------------------------------------

    def _next_id(self) -> str:
        taken = set(self._campaigns)
        if self.state_dir.exists():
            taken.update(p.name for p in self.state_dir.iterdir() if p.is_dir())
        index = len(taken) + 1
        while f"c{index:04d}" in taken:
            index += 1
        return f"c{index:04d}"

    def _shard_path(self, state: CampaignState, slot: int) -> Path:
        return state.directory / f"shard-{slot:02d}.jsonl"

    def _load_campaigns(self) -> None:
        """Reload persisted campaigns; completed scenarios (folded from
        the shard journals) are never re-run."""
        for spec_path in sorted(self.state_dir.glob(f"*/{SPEC_FILENAME}")):
            directory = spec_path.parent
            try:
                payload = json.loads(spec_path.read_text())
                spec = CampaignSpec.from_dict(payload["spec"])
                grid = [Scenario(**coords) for coords in payload["grid"]]
                shard_size = int(payload["shard_size"])
                campaign_id = payload["id"]
            except (KeyError, TypeError, ValueError) as exc:
                _LOGGER.warning(
                    "skipping unreadable campaign dir %s: %s", directory, exc
                )
                continue
            key_set = {scenario.key() for scenario in grid}
            folded: Dict[str, CompletedScenario] = {}
            for shard in sorted(directory.glob("shard-*.jsonl")):
                folded.update(
                    (key, record)
                    for key, record in fold_journal(shard).items()
                    if key in key_set
                )
            done: Set[str] = set(folded)
            errors: Set[str] = {
                key for key, record in folded.items()
                if record.row.error is not None
            }
            recovered_metrics: Dict[str, float] = metrics_merge(
                {}, *(record.metrics for record in folded.values())
            )
            units = []
            for index, slice_ in enumerate(shard_scenarios(grid, shard_size)):
                unit = WorkUnit(index=index, scenarios=slice_)
                unit.done_keys = {
                    key for key in unit.keys if key in done
                }
                if unit.remaining == 0:
                    unit.state = "done"
                units.append(unit)
            self._campaigns[campaign_id] = CampaignState(
                id=campaign_id,
                spec=spec,
                grid=grid,
                shard_size=shard_size,
                directory=directory,
                units=units,
                resumed=len(done),
                error_keys=errors,
                metrics=recovered_metrics,
            )
            pending = sum(1 for unit in units if unit.state == "pending")
            _LOGGER.info(
                "campaign %s reloaded: %d/%d scenario(s) journaled, "
                "%d unit(s) pending", campaign_id, len(done), len(grid),
                pending,
            )

    def _pump(self) -> None:
        """One scheduler tick: take what the pool has without blocking,
        then hand pending units to idle workers."""
        for event in self._pool.poll(0):
            if isinstance(event, Result):
                self._record(event)
            else:
                self._forfeit(event)
        self._dispatch()

    def _record(self, event: Result) -> None:
        """Journal one scenario result, then count it."""
        campaign_id, unit_index = event.tag
        record, snapshot = event.value
        self._worker_snapshots[event.slot] = snapshot
        state = self._campaigns[campaign_id]
        unit = state.units[unit_index]
        with open_journal(
            self._shard_path(state, event.slot), append=True
        ) as shard:
            append_line(shard, journal_line(record))
        if record.key not in unit.done_keys:
            # First sighting of this key: fold its delta.  A scenario
            # re-executed after its worker died mid-unit lands here
            # once — set semantics keep the count honest either way.
            unit.done_keys.add(record.key)
            metrics_merge(state.metrics, record.metrics)
        if record.row.error is not None:
            state.error_keys.add(record.key)
        if unit.remaining == 0:
            unit.state = "done"
            unit.slot = None

    def _forfeit(self, lost: Lost) -> None:
        """A unit whose worker died or stalled: retry it or fail it."""
        campaign_id, unit_index = lost.tag
        self._worker_snapshots.pop(lost.slot, None)
        unit = self._campaigns[campaign_id].units[unit_index]
        _LOGGER.warning(
            "worker %d lost unit %s:%d (%s: %s); respawned",
            lost.slot, campaign_id, unit_index, lost.reason, lost.detail,
        )
        unit.slot = None
        if unit.attempts > self.retry_limit:
            unit.state = "failed"
            _LOGGER.error(
                "campaign %s unit %d failed: retry budget (%d) exhausted "
                "after %d attempt(s); %d scenario(s) of the unit are "
                "journaled", campaign_id, unit_index, self.retry_limit,
                unit.attempts, len(unit.done_keys),
            )
        else:
            unit.state = "pending"
            self._campaigns[campaign_id].retries += 1
            _LOGGER.info(
                "campaign %s unit %d resubmitted (attempt %d of %d); "
                "%d finished scenario(s) will be skipped",
                campaign_id, unit_index, unit.attempts + 1,
                self.retry_limit + 1, len(unit.done_keys),
            )

    def _dispatch(self) -> None:
        while self._pool.idle:
            assignment = self._next_pending()
            if assignment is None:
                return
            state, unit = assignment
            chaos = state.spec.chaos_kill_key
            if not (state.spec.chaos_always or unit.attempts == 0):
                chaos = None
            items = [
                (scenario, scenario.key() == chaos)
                for scenario in unit.scenarios
                if scenario.key() not in unit.done_keys
            ]
            unit.state = "running"
            unit.attempts += 1
            unit.slot = self._pool.submit((state.id, unit.index), items)

    def _next_pending(self) -> Optional[Tuple[CampaignState, WorkUnit]]:
        for campaign_id in sorted(self._campaigns):
            state = self._campaigns[campaign_id]
            for unit in state.units:
                if unit.state == "pending":
                    return state, unit
        return None
