"""The fuzz loop: scenarios along both production paths, against the reference.

Each iteration derives its scenario purely from ``(fuzz_seed, index)``
(see :mod:`repro.fuzz.scenarios`), observes it three times — through
the reference simulator and along the production full and incremental
paths (see :mod:`repro.fuzz.oracle`) — and reports the first
divergence, or the first crash, on any side.  A finding is
delta-debugged down to a minimal scenario and returned as a
ready-to-serialize corpus record.

Iterations run on the shared :class:`~repro.experiments.pool.WorkerPool`
(one index in flight per worker; inline with ``workers <= 1``).  An
index whose worker dies, or that yields no result within
:data:`FUZZ_DEADLINE_S`, is itself a finding: an ``ok=False`` row with
check ``"killed"`` or ``"hang"``.  Those two are not shrunk — a
shrinking step could hang or die just the same — so they carry no
corpus record.

Results stream through the shared JSONL journal substrate
(:mod:`repro.experiments.journal`): every finished iteration is
appended and flushed, ``resume=True`` folds the journal first and
re-runs only missing indices, and the final summary is rebuilt by
folding — so an interrupted nightly fuzz run continues where it
stopped, at any worker count, with a byte-identical outcome.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..experiments.journal import append_line, open_journal, read_records
from ..experiments.pool import Lost, WorkerPool
from .corpus import make_record, write_repro
from .oracle import (
    compare,
    finding_signature,
    first_divergence,
    materialize_scenario,
)
from .scenarios import FuzzScenario, scenario_at
from .shrink import shrink_scenario

__all__ = [
    "FUZZ_DEADLINE_S",
    "FUZZ_JOURNAL_VERSION",
    "FuzzConfig",
    "FuzzIterationResult",
    "FuzzSummary",
    "fold_fuzz_journal",
    "lint_scenario",
    "run_fuzz",
    "run_fuzz_iteration",
]

# v2 adds the static-analysis cross-check columns to every executed
# iteration: ``broken`` (did the reference observation end with a
# violated invariant or failed global check), ``lint_findings``/
# ``lint_high`` (analyzer counts over the final edited configs), and
# ``recall_gap`` (simulator says broken, analyzer found nothing — a
# journaled hole in the lint rule set).  v3 compares against the
# reference simulator: the header drops ``pairs`` and rows gain the
# ``crash`` check.  v4 observes the production full and incremental
# paths instead of toggle combinations: the header drops ``combos``,
# rows drop ``combo``, and the mismatch text names the diverging path.
# Folding stays tolerant in both directions.
FUZZ_JOURNAL_VERSION = 4

# Seconds one pooled index may run before it is journaled as a hang.
# Far above the measured cost of an iteration on a 2-vCPU x86-64 VM
# (0.16 s clean, 0.7 s with a finding and its shrink), so only a genuine
# hang reaches it.
FUZZ_DEADLINE_S = 120.0

# Budget mode stops claiming indices here even if time is left.
_BUDGET_INDEX_LIMIT = 1_000_000


@dataclass(frozen=True)
class FuzzConfig:
    """One fuzz run's knobs.

    ``iterations`` pins an exact, deterministic amount of work;
    ``budget_s`` instead runs until the wall-clock budget is spent
    (the nightly mode).  ``planted`` names hidden known-bug flags to
    re-enable in the reference — the harness's self-test mechanism,
    proving the loop can find, shrink, and serialize a real historical
    bug.
    """

    fuzz_seed: int = 0
    iterations: Optional[int] = None
    budget_s: Optional[float] = None
    workers: int = 1
    corpus_dir: "Path | str" = Path("tests/fuzz_corpus")
    planted: Tuple[str, ...] = ()


@dataclass(frozen=True)
class FuzzIterationResult:
    """One iteration's outcome (one journal row)."""

    index: int
    key: str
    ok: bool
    # When not ok: "semantic" | "exports" | "memo" | "crash", or
    # "killed" | "hang" when the index's worker died or missed
    # FUZZ_DEADLINE_S.
    check: Optional[str] = None
    mismatch: Optional[str] = None
    repro: Optional[dict] = None  # shrunk corpus record, ready to write
    error: Optional[str] = None  # scenario-generation failure (skipped)
    # Static-analysis cross-check (journal v2).  ``recall_gap`` is the
    # interesting bit: the simulator proves the final edited configs
    # broken, yet the analyzer found nothing — a measured hole in the
    # lint rule set, journaled so it can become a new rule.  All None
    # on skipped iterations and rows folded from v1 journals.
    broken: Optional[bool] = None
    lint_findings: Optional[int] = None
    lint_high: Optional[int] = None
    recall_gap: Optional[bool] = None


@contextmanager
def _planted_scope(planted: Sequence[str]):
    """Plant the named bugs for the duration of the block, restoring the
    previous planted set on exit — an in-process fuzz run must not leave
    a known bug enabled for whatever runs next."""
    from .reference import _KNOWN_PLANTED_BUGS, _plant_bug, _planted_bugs

    before = _planted_bugs()
    for name in planted:
        _plant_bug(name, True)
    try:
        yield
    finally:
        for name in _KNOWN_PLANTED_BUGS:
            _plant_bug(name, name in before)


def run_fuzz_iteration(
    fuzz_seed: int,
    index: int,
    planted: Sequence[str] = (),
) -> FuzzIterationResult:
    """Fuzz one index: observe the reference and both production paths,
    diff them, shrink the first divergence or crash.  Deterministic —
    the same arguments produce the same result in any process."""
    with _planted_scope(planted):
        return _fuzz_index(fuzz_seed, index)


def _fuzz_index(fuzz_seed: int, index: int) -> FuzzIterationResult:
    scenario = scenario_at(fuzz_seed, index)
    try:
        materialize_scenario(scenario)
    except ValueError as exc:  # impossible coordinates: nothing to fuzz
        return FuzzIterationResult(
            index=index,
            key=scenario.key(),
            ok=True,
            error=f"{type(exc).__name__}: {exc}",
        )
    except Exception:
        pass  # not a coordinate error: the reference run records the crash
    reference_obs, failure = first_divergence(scenario)
    lint = _lint_cross_check(scenario, reference_obs)
    if failure is None:
        return FuzzIterationResult(
            index=index, key=scenario.key(), ok=True, **lint
        )

    check, mismatch = failure
    signature = finding_signature(check, mismatch)

    def still_fails(candidate: FuzzScenario) -> bool:
        found = compare(candidate)
        return found is not None and finding_signature(*found) == signature

    shrunk = shrink_scenario(scenario, still_fails)
    if shrunk != scenario:
        mismatch = compare(shrunk)[1]
    record = make_record(
        shrunk, check, mismatch, fuzz_seed=fuzz_seed, index=index
    )
    return FuzzIterationResult(
        index=index,
        key=scenario.key(),
        ok=False,
        check=check,
        mismatch=mismatch,
        repro=record,
        **lint,
    )


def _lint_cross_check(
    scenario: FuzzScenario, reference_obs: Optional[dict]
) -> Dict[str, Any]:
    """Cross the simulator's verdict with the static analyzer's.

    ``broken`` reads the *final* reference step (the state the analyzer
    sees): any local-invariant violation or a failed global check.  The
    analyzer then runs over the same final edited configs; a broken
    network that lints clean is a recall gap — journaled, and counted
    on ``analysis.recall_gaps``, so fuzzing continuously measures the
    rule set's blind spots.  Analysis failures degrade to None columns
    rather than aborting the iteration.
    """
    try:
        last = reference_obs["steps"][-1]
        broken = bool(last["violations"]) or not last["global"]["holds"]
    except (KeyError, IndexError, TypeError):
        return {}
    try:
        from ..obs import counter

        report = lint_scenario(scenario)
    except Exception:
        return {"broken": broken}
    recall_gap = bool(broken and len(report) == 0)
    if recall_gap:
        counter("analysis.recall_gaps").inc()
    return {
        "broken": broken,
        "lint_findings": len(report),
        "lint_high": report.high,
        "recall_gap": recall_gap,
    }


def lint_scenario(scenario: FuzzScenario):
    """Run the static analyzer over a fuzz scenario's *final* configs.

    Rebuilds the reference configs for the scenario's topology, applies
    its whole edit sequence, renders every router, and returns the
    :class:`~repro.analysis.findings.LintReport`.  Pure function of the
    scenario — the corpus determinism test asserts two calls serialize
    identically.
    """
    from ..analysis import analyze_configs
    from ..cisco.generator import generate_cisco
    from ..experiments.no_transit import materialize_network
    from ..topology.reference import build_reference_configs
    from .edits import apply_edit_op, resolve_router

    network = materialize_network(
        scenario.family,
        scenario.size,
        roles=scenario.roles,
        topo=scenario.topo,
        topology_seed=scenario.topology_seed,
        place=scenario.place,
    )
    topology = network.topology
    configs = build_reference_configs(topology)
    for edit in scenario.edits:
        router = resolve_router(edit.router_index, configs)
        apply_edit_op(edit.op, configs, router)
    texts = {
        name: generate_cisco(config) for name, config in configs.items()
    }
    return analyze_configs(configs, topology=topology, texts=texts)


# -- the fuzz journal ----------------------------------------------------------


def _fuzz_header(config: FuzzConfig) -> str:
    return json.dumps(
        {
            "kind": "fuzz",
            "version": FUZZ_JOURNAL_VERSION,
            "fuzz_seed": config.fuzz_seed,
        },
        sort_keys=True,
    )


def _fuzz_line(result: FuzzIterationResult) -> str:
    return json.dumps(
        {
            "kind": "fuzz_result",
            "index": result.index,
            "key": result.key,
            "ok": result.ok,
            "check": result.check,
            "mismatch": result.mismatch,
            "repro": result.repro,
            "error": result.error,
            "broken": result.broken,
            "lint_findings": result.lint_findings,
            "lint_high": result.lint_high,
            "recall_gap": result.recall_gap,
        },
        sort_keys=True,
    )


def fold_fuzz_journal(path: "Path | str") -> Dict[int, FuzzIterationResult]:
    """Reconstruct fuzz results by folding a journal (same tolerance
    rules as the campaign fold: malformed lines skipped, latest record
    per index wins)."""
    results: Dict[int, FuzzIterationResult] = {}
    for record in read_records(path):
        if record.get("kind") != "fuzz_result":
            continue
        index = record.get("index")
        key = record.get("key")
        if not isinstance(index, int) or not isinstance(key, str):
            continue
        results[index] = FuzzIterationResult(
            index=index,
            key=key,
            ok=bool(record.get("ok")),
            check=record.get("check"),
            mismatch=record.get("mismatch"),
            repro=record.get("repro"),
            error=record.get("error"),
            broken=record.get("broken"),
            lint_findings=record.get("lint_findings"),
            lint_high=record.get("lint_high"),
            recall_gap=record.get("recall_gap"),
        )
    return results


# -- the loop ------------------------------------------------------------------


@dataclass
class FuzzSummary:
    """Everything one fuzz run produced."""

    results: List[FuzzIterationResult] = field(default_factory=list)
    fuzz_seed: int = 0
    workers: int = 1
    duration_s: float = 0.0
    resumed: int = 0
    corpus_written: List[Path] = field(default_factory=list)

    @property
    def mismatches(self) -> List[FuzzIterationResult]:
        return [result for result in self.results if not result.ok]

    @property
    def skipped(self) -> List[FuzzIterationResult]:
        return [result for result in self.results if result.error is not None]

    @property
    def recall_gaps(self) -> List[FuzzIterationResult]:
        """Iterations the simulator proved broken but the analyzer
        linted clean — measured blind spots in the lint rule set."""
        return [result for result in self.results if result.recall_gap]

    def render(self) -> str:
        lines = []
        for result in self.results:
            if result.error is not None:
                lines.append(
                    f"  [{result.index:>4}] SKIP {result.key} "
                    f"({result.error})"
                )
            elif not result.ok:
                what = (
                    result.check
                    if result.check in ("crash", "killed", "hang")
                    else f"{result.check} mismatch"
                )
                lines.append(
                    f"  [{result.index:>4}] FAIL {result.key}\n"
                    f"         {what}:\n         {result.mismatch}"
                )
            if result.recall_gap:
                lines.append(
                    f"  [{result.index:>4}] LINT-GAP {result.key} "
                    f"(simulator: broken; analyzer: 0 findings)"
                )
        status = (
            f"fuzz: {len(self.results)} iteration(s), "
            f"{len(self.mismatches)} mismatch(es), "
            f"{len(self.skipped)} skipped, seed {self.fuzz_seed}, "
            f"{self.workers} worker(s), {self.duration_s:.2f}s"
        )
        if self.recall_gaps:
            status += f", {len(self.recall_gaps)} lint recall gap(s)"
        lines.append(status)
        for path in self.corpus_written:
            lines.append(f"  shrunk repro written: {path}")
        return "\n".join(lines)


def run_fuzz(
    config: FuzzConfig,
    journal_path: "Path | str | None" = None,
    resume: bool = False,
) -> FuzzSummary:
    """Run the fuzz loop; returns a summary folded from the journal.

    With ``iterations`` set the run is exactly that many indices (the
    deterministic mode the corpus tests rely on); with ``budget_s`` the
    loop keeps claiming indices, one per free worker, until the budget
    is spent.  Corpus records are written by the parent only, so worker
    count never changes what lands on disk.  A killed or hung index is
    not retried: iterations are deterministic, so it would die again.
    """
    if config.iterations is None and config.budget_s is None:
        raise ValueError("FuzzConfig needs iterations or budget_s")
    with _planted_scope(config.planted):
        return _run_fuzz_loop(config, journal_path, resume)


def _lost_finding(fuzz_seed: int, lost: Lost) -> FuzzIterationResult:
    """The ``ok=False`` row for an index whose worker died or hung."""
    detail = lost.detail
    if lost.reason == "killed":
        detail += f" before the {FUZZ_DEADLINE_S:g}s deadline"
    return FuzzIterationResult(
        index=lost.tag,
        key=scenario_at(fuzz_seed, lost.tag).key(),
        ok=False,
        check=lost.reason,
        mismatch=f"index {lost.tag}: {detail}",
    )


def _run_fuzz_loop(
    config: FuzzConfig,
    journal_path: "Path | str | None",
    resume: bool,
) -> FuzzSummary:
    started = time.perf_counter()
    journal = Path(journal_path) if journal_path is not None else None
    if resume and journal is None:
        raise ValueError("resume=True requires a journal_path")
    completed: Dict[int, FuzzIterationResult] = {}
    if resume:
        completed = fold_fuzz_journal(journal)
    resumed = len(completed)

    handle = None
    if journal is not None:
        appending = resume and journal.exists()
        # open_journal repairs a crash-truncated final line whenever
        # it appends, so the first resumed record never lands on the
        # fragment the crash left behind.
        handle = open_journal(journal, append=appending)
        if not appending:
            append_line(handle, _fuzz_header(config))

    def claims():
        """Pending indices, claimed lazily so budget mode checks the
        clock each time a worker frees up."""
        limit = config.iterations
        for index in range(_BUDGET_INDEX_LIMIT if limit is None else limit):
            if (
                config.budget_s is not None
                and time.perf_counter() - started >= config.budget_s
            ):
                return
            if index not in completed:
                yield index, [index]

    task = partial(
        run_fuzz_iteration, config.fuzz_seed, planted=config.planted
    )
    try:
        with WorkerPool(
            task,
            config.workers if config.workers > 1 else 0,
            deadline_s=FUZZ_DEADLINE_S,
        ) as pool:
            for event in pool.run(claims()):
                result = (
                    _lost_finding(config.fuzz_seed, event)
                    if isinstance(event, Lost)
                    else event.value
                )
                completed[result.index] = result
                if handle is not None:
                    append_line(handle, _fuzz_line(result))
    finally:
        if handle is not None:
            handle.close()

    if journal is not None:
        completed = fold_fuzz_journal(journal)
    ordered = [completed[index] for index in sorted(completed)]
    corpus_written = [
        write_repro(config.corpus_dir, result.repro)
        for result in ordered
        if result.repro is not None
    ]
    return FuzzSummary(
        results=ordered,
        fuzz_seed=config.fuzz_seed,
        workers=max(1, config.workers),
        duration_s=time.perf_counter() - started,
        resumed=resumed,
        corpus_written=corpus_written,
    )
