"""The benchmark's four workloads and their known-answer checks.

Each workload is a closed loop with one client: the next op starts when
the previous one returned.  Ops come in *cycles*, and a run measures
whole cycles, so every run sees the same mix of op kinds.

* ``paper-warm`` -- the paper's two use cases on the cache-hit path.
* ``fresh-networks`` -- synthesis on networks the process has not seen.
* ``edit-reverify`` -- single-router edits re-verified incrementally.
* ``campaign-lint`` -- one linted batch campaign over a process pool.

Known answers come from outside the verifiers under test: the paper's
Table 2 and prompt counts, the reference configurations the simulated
LLM drafts from (a verified loop must end on exactly those texts), and
the edit's own construction (removing a router's egress filter must
break no-transit; putting it back must restore it).
"""

from __future__ import annotations

import json
import random
import time
import zlib
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cisco import generate_cisco, parse_cisco
from repro.core import orchestrator as loop
from repro.core.modularizer import Modularizer
from repro.experiments import campaign
from repro.experiments.data import load_translation_source
from repro.experiments.no_transit import (
    NoTransitExperiment,
    materialize_network,
    run_no_transit_experiment,
)
from repro.experiments.translation import run_translation_experiment
from repro.juniper import generate_juniper
from repro.lightyear.compose import (
    IncrementalGlobalChecker,
    reset_simulation_states,
)
from repro.llm.translation_model import reference_translation
from repro.netmodel.routing_policy import Action, RouteMap, RouteMapClause
from repro.obs import counters_snapshot, delta, merge
from repro.symbolic import reset_caches
from repro.topology.reference import build_reference_configs

from calibrate import slowdown
from layers import Tracer

#: Table 2 of the paper: the two translation errors a generated prompt
#: could not fix.  Every other row of the table reads "Yes".
PAPER_NOT_FIXED = frozenset(
    {"Different redistribution into BGP", "Different prefix lengths match in BGP"}
)
#: §3.2 and §4.2 of the paper: each use case needed two human prompts.
PAPER_HUMAN_PROMPTS = 2


class Recorder:
    """What one pass over a workload measured.

    Times are at reference machine speed: each timed region is divided
    by the slow-down the calibration kernel measured around it.
    """

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer
        self.op_s: List[float] = []
        self.samples: Dict[str, List[float]] = {}
        self.timed_s = 0.0
        self.raw_timed_s = 0.0
        self.failed = 0
        self.failures: List[str] = []
        self.prompts = [0, 0]
        # Registry delta over the timed regions (traced passes only), and
        # the same after the first cycle, for the fingerprint.
        self.metrics: Dict[str, float] = {}
        self.first_cycle: Optional[Tuple[Dict[str, float], Tuple[int, int]]] = None
        self.cycles = 0
        self._errors: List[str] = []

    def timed(self, function: Callable, *args: Any, **kwargs: Any) -> Tuple[Any, float]:
        """Call ``function`` and return its result and reference-speed time."""
        before = counters_snapshot() if self.tracer is not None else None
        slow_before = slowdown()
        result, elapsed = self.call(function, *args, **kwargs)
        slow = (slow_before + slowdown()) / 2
        if before is not None:
            merge(self.metrics, delta(before, counters_snapshot()))
        self.account(elapsed, slow)
        return result, elapsed / slow

    def call(self, function: Callable, *args: Any, **kwargs: Any) -> Tuple[Any, float]:
        """Call ``function`` and return its result and wall time; an
        exception becomes a failure of the next op."""
        started = time.perf_counter()
        try:
            result = function(*args, **kwargs)
        except Exception as exc:  # an op error is a measured failure
            result = None
            self._errors.append(f"{type(exc).__name__}: {exc}")
        return result, time.perf_counter() - started

    def account(self, elapsed: float, slow: float) -> None:
        self.raw_timed_s += elapsed
        self.timed_s += elapsed / slow

    def sample(self, kind: str, seconds: float) -> None:
        self.samples.setdefault(kind, []).append(seconds)

    def op(self, seconds: float, problems: List[str], prompts=(0, 0)) -> None:
        self.op_s.append(seconds)
        self.prompts[0] += prompts[0]
        self.prompts[1] += prompts[1]
        problems = self._errors + problems
        self._errors = []
        if problems:
            self.failed += 1
            self.failures.extend(problems)


def _reference_texts(topology) -> Dict[str, str]:
    return {
        name: generate_cisco(config)
        for name, config in build_reference_configs(topology).items()
    }


def _synthesis_problems(
    experiment: Optional[NoTransitExperiment], reference: Dict[str, str]
) -> List[str]:
    if experiment is None:
        return []
    result = experiment.result
    label = f"{experiment.family}-{len(reference)} seed {experiment.seed}"
    problems = []
    if not result.verified:
        problems.append(f"{label}: synthesis did not verify")
    if result.global_check is None or not result.global_check.holds:
        problems.append(f"{label}: global no-transit check does not hold")
    wrong = sorted(
        name for name in reference if result.router_texts.get(name) != reference[name]
    )
    if wrong:
        problems.append(f"{label}: final configs differ from reference on {wrong}")
    return problems


def _prompts(experiment) -> Tuple[int, int]:
    if experiment is None:
        return (0, 0)
    return (experiment.automated_prompts, experiment.human_prompts)


class PaperWarm:
    """Translation plus 7-router star synthesis, caches warm.

    One op is a pair: the translation and the synthesis with the same
    LLM seed.  A cycle revisits the same seeds, which an untimed pass in
    set-up has already run once.
    """

    name = "paper-warm"
    in_process = True
    SEEDS = 6

    def __init__(self, seed: int) -> None:
        self.seeds = [seed * self.SEEDS + offset for offset in range(self.SEEDS)]

    def setup(self) -> List[str]:
        reset_caches()
        reset_simulation_states()
        self.translation = generate_juniper(
            reference_translation(load_translation_source())
        )
        self.star = _reference_texts(materialize_network("star", 7).topology)
        problems = self._paper_answers()
        for seed in self.seeds:
            problems += self._translation_problems(run_translation_experiment(seed))
            problems += _synthesis_problems(
                run_no_transit_experiment(seed=seed), self.star
            )
        return problems

    def _paper_answers(self) -> List[str]:
        translation = run_translation_experiment(0)
        synthesis = run_no_transit_experiment(seed=0)
        problems = self._translation_problems(translation)
        problems += _synthesis_problems(synthesis, self.star)
        not_fixed = {
            row.error for row in translation.table2_rows()
            if not row.fixed_by_generated_prompt
        }
        if not_fixed != PAPER_NOT_FIXED:
            problems.append(
                f"Table 2: rows not fixed by a generated prompt are "
                f"{sorted(not_fixed)}, paper has {sorted(PAPER_NOT_FIXED)}"
            )
        for label, experiment in (("translation", translation), ("synthesis", synthesis)):
            if experiment.human_prompts != PAPER_HUMAN_PROMPTS:
                problems.append(
                    f"{label} seed 0 needed {experiment.human_prompts} human "
                    f"prompts, paper needed {PAPER_HUMAN_PROMPTS}"
                )
        return problems

    def _translation_problems(self, experiment) -> List[str]:
        if experiment is None:
            return []
        problems = []
        if not experiment.result.verified:
            problems.append(f"translation seed {experiment.seed} did not verify")
        if experiment.result.final_text != self.translation:
            problems.append(
                f"translation seed {experiment.seed} differs from the reference"
            )
        return problems

    def run_cycle(self, cycle: int, rec: Recorder) -> None:
        for seed in self.seeds:
            translation, translate_s = rec.timed(run_translation_experiment, seed)
            synthesis, synthesize_s = rec.timed(run_no_transit_experiment, seed=seed)
            rec.sample("translate_ms", translate_s)
            rec.sample("synthesize_ms", synthesize_s)
            prompts = [a + b for a, b in zip(_prompts(translation), _prompts(synthesis))]
            rec.op(
                translate_s + synthesize_s,
                self._translation_problems(translation)
                + _synthesis_problems(synthesis, self.star),
                prompts,
            )


class FreshNetworks:
    """One synthesis per op on a network the process has not seen."""

    name = "fresh-networks"
    in_process = True
    CYCLE = (
        ("star", 16, None),
        ("mesh", 16, None),
        ("ring", 16, None),
        ("chain", 16, None),
        ("dumbbell", 16, None),
        ("random", 20, "c2i3h2"),
        ("waxman", 20, "c2i3h2"),
    )

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> List[str]:
        return []

    def run_cycle(self, cycle: int, rec: Recorder) -> None:
        for family, size, roles in self.CYCLE:
            salt = f"{self.seed}:{cycle}:{family}"
            # The process-global memo and warm simulation states would
            # otherwise carry the previous op into this one.
            reset_caches()
            reset_simulation_states()
            experiment, seconds = rec.timed(
                run_no_transit_experiment,
                router_count=size,
                seed=zlib.crc32(f"llm:{salt}".encode()),
                family=family,
                roles=roles,
                topology_seed=zlib.crc32(f"topology:{salt}".encode()),
            )
            problems = []
            if experiment is not None:
                reference = _reference_texts(experiment.network.topology)
                problems = _synthesis_problems(experiment, reference)
            rec.op(seconds, problems, _prompts(experiment))


def _strip_egress_filters(text: str) -> str:
    """The router's text with every FILTER_COMM_OUT_* map permitting all."""
    config = parse_cisco(text).config
    for name in config.route_maps:
        if name.startswith("FILTER_COMM_OUT_"):
            permit_all = RouteMap(name)
            permit_all.add_clause(RouteMapClause(seq=10, action=Action.PERMIT))
            config.route_maps[name] = permit_all
    return generate_cisco(config)


class EditReverify:
    """Strip or restore one router's egress filters on a verified mesh-16.

    Each op re-parses the edited router, checks its local invariants and
    re-runs the global check incrementally with the edited router named.
    A cycle strips and restores every policy router once, in an order
    drawn from the seed, so every cycle does the same work.
    """

    name = "edit-reverify"
    in_process = True
    POLICY_ROUTERS = 15

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> List[str]:
        reset_caches()
        reset_simulation_states()
        experiment = run_no_transit_experiment(
            router_count=16, seed=self.seed, family="mesh"
        )
        self.topology = experiment.network.topology
        problems = _synthesis_problems(
            experiment, _reference_texts(self.topology)
        )
        self.texts = dict(experiment.result.router_texts)
        self.configs = {
            name: parse_cisco(text, filename=f"{name}.cfg").config
            for name, text in self.texts.items()
        }
        self.victims = sorted(
            name for name, config in self.configs.items()
            if any(map_name.startswith("FILTER_COMM_OUT_") for map_name in config.route_maps)
        )
        if len(self.victims) != self.POLICY_ROUTERS:
            problems.append(
                f"mesh-16 has {len(self.victims)} policy routers, "
                f"expected {self.POLICY_ROUTERS}"
            )
        self.stripped = {
            name: _strip_egress_filters(self.texts[name]) for name in self.victims
        }
        modularizer = Modularizer(self.topology)
        self.invariants = {
            name: modularizer.local_invariants(name) for name in self.victims
        }
        self.checker = IncrementalGlobalChecker()
        baseline = loop.check_global_no_transit(
            self.configs, self.topology, checker=self.checker
        )
        if not baseline.holds:
            problems.append("baseline mesh-16 does not hold no-transit")
        return problems

    def _reverify(self, victim: str, text: str):
        # Calls go through the orchestrator's bindings, the names the
        # traced run wraps, so they are timed under the same layers.
        parsed = loop.parse_cisco(text, filename=f"{victim}.cfg")
        self.configs[victim] = parsed.config
        local = loop.verify_invariants(
            {victim: parsed.config}, self.invariants[victim]
        )
        verdict = loop.check_global_no_transit(
            self.configs,
            self.topology,
            checker=self.checker,
            changed_routers={victim},
        )
        return parsed.warnings, local, verdict.holds

    def run_cycle(self, cycle: int, rec: Recorder) -> None:
        order = list(self.victims)
        random.Random(f"{self.seed}:{cycle}").shuffle(order)
        reverify = self._reverify
        if rec.tracer is not None:
            reverify = rec.tracer.wrap("edit.op", reverify)
        for victim in order:
            for strip in (True, False):
                text = self.stripped[victim] if strip else self.texts[victim]
                outcome, seconds = rec.timed(reverify, victim, text)
                problems = []
                if outcome is not None:
                    warnings, local, holds = outcome
                    edit = "strip" if strip else "restore"
                    if warnings:
                        problems.append(f"{edit} {victim}: parse warnings {warnings[:1]}")
                    if bool(local) != strip:
                        problems.append(f"{edit} {victim}: local verdict wrong")
                    if holds == strip:
                        problems.append(f"{edit} {victim}: global verdict wrong")
                rec.op(seconds, problems)


#: Journal-row metric carrying the slow-down around one scenario.
SLOWDOWN = "perfbench.slowdown"
# The originals, bound at import: in a forked worker the campaign module
# holds the patched names below.
_EXECUTE_SCENARIO = campaign.execute_scenario
_INIT_WORKER = campaign._init_worker


def calibrated_scenario(scenario, network=None):
    """Worker side: one scenario bracketed by the calibration kernel.

    The slow-down is taken in the worker, alongside the other worker, so
    it matches the conditions the scenario ran under.
    """
    before = slowdown()
    record = _EXECUTE_SCENARIO(scenario, network)
    record.metrics[SLOWDOWN] = (before + slowdown()) / 2
    return record


def traced_init_worker(*args: Any) -> None:
    """Worker side: the program's own initializer, then the tracer."""
    _INIT_WORKER(*args)
    Tracer().install()


class CampaignLint:
    """One linted campaign over a fixed 36-scenario grid, 2 workers.

    The op is a scenario; its latency is the journaled ``duration_s``.
    The traced pass reads per-layer figures from the journal rows, which
    carry the workers' registry deltas.
    """

    name = "campaign-lint"
    in_process = False
    WORKERS = 2

    def __init__(self, seed: int, scratch: Path) -> None:
        self.scratch = scratch
        fixed = [
            campaign.Scenario(family=family, size=size, seed=3 * seed + index)
            for family in ("star", "chain", "ring", "mesh")
            for size in (8, 12)
            for index in range(3)
        ]
        roled = [
            campaign.Scenario(
                family=family, size=size, seed=3 * seed + index, roles="c2i3h2"
            )
            for family in ("random", "waxman")
            for size in (12, 16)
            for index in range(3)
        ]
        self.grid = fixed + roled

    def setup(self) -> List[str]:
        campaign.set_campaign_lint(True)
        self.scratch.mkdir(parents=True, exist_ok=True)
        return []

    def run_cycle(self, cycle: int, rec: Recorder) -> None:
        journal = self.scratch / f"campaign-{cycle}.jsonl"
        journal.unlink(missing_ok=True)
        patches: Dict[str, Any] = {"execute_scenario": calibrated_scenario}
        if rec.tracer is not None:
            patches["_init_worker"] = traced_init_worker
        saved = {name: getattr(campaign, name) for name in patches}
        for name, value in patches.items():
            setattr(campaign, name, value)
        try:
            _, wall = rec.call(
                campaign.run_campaign,
                self.grid,
                workers=self.WORKERS,
                journal_path=journal,
            )
        finally:
            for name, value in saved.items():
                setattr(campaign, name, value)
        records = []
        if journal.exists():
            with journal.open() as handle:
                records = [json.loads(line) for line in handle]
            journal.unlink()
        rows = [record for record in records if record.get("kind") == "result"]
        raw_busy = sum(record["row"]["duration_s"] for record in rows)
        busy = sum(
            record["row"]["duration_s"] / record["metrics"][SLOWDOWN]
            for record in rows
        )
        # The pool's wall time takes the scenarios' time-weighted slow-down.
        slow = raw_busy / busy if busy else 1.0
        rec.account(wall, slow)
        seconds = wall / slow
        rec.sample("campaign_s", seconds)
        rec.sample("pool_overhead_s", seconds - busy / self.WORKERS)
        rec.sample("worker_busy_ratio", busy / (self.WORKERS * seconds))
        missing = len(self.grid) - len(rows)
        for record in rows:
            row = record["row"]
            problems = []
            if row.get("error"):
                problems.append(f"{record['key']}: {row['error']}")
            elif not (row["verified"] and row["global_ok"]):
                problems.append(f"{record['key']}: not verified with global_ok")
            elif row.get("lint_findings") != 0:
                problems.append(
                    f"{record['key']}: {row.get('lint_findings')} lint findings"
                )
            if rec.tracer is not None:
                merge(rec.metrics, record["metrics"])
            rec.op(
                row["duration_s"] / record["metrics"][SLOWDOWN],
                problems,
                (row["automated_prompts"], row["human_prompts"]),
            )
        for _ in range(missing):
            rec.op(0.0, [f"campaign {cycle}: scenario missing from the journal"])


def make_workload(name: str, seed: int, scratch: Path):
    if name == CampaignLint.name:
        return CampaignLint(seed, scratch)
    for workload in (PaperWarm, FreshNetworks, EditReverify):
        if workload.name == name:
            return workload(seed)
    raise ValueError(f"unknown workload {name!r}")
