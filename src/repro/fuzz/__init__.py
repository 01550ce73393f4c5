"""Differential fuzzing of the simulator/verifier against a reference.

The production BGP simulator carries two optimizations that can be
switched off (incremental re-simulation, symbolic memoization) and
runs over nine topology-family cells.  Under every toggle combination
it must be observationally identical to a small, independent reference
simulator written from the decision-process spec — the hand-written
differential suites spot-check that contract; this package fuzzes it
continuously:

* :mod:`reference` is the spec-derived BGP simulator (synchronous
  rounds, an explicit attribute cascade, no caches or worklists);
* :mod:`scenarios` generates seeded random (family, size, roles, topo
  knobs, placement, policy-edit sequence) scenarios;
* :mod:`oracle` runs one scenario under a toggle combination (or
  through the reference) and records canonical observations (per-step
  RIBs, invariant violations with witnesses, global verdicts, memo
  traffic);
* :mod:`harness` drives the loop: every combination against the
  reference, crashes included, streaming results through the
  campaign's JSONL journal substrate;
* :mod:`shrink` delta-debugs a mismatch or crash down to a minimal
  repro;
* :mod:`corpus` serializes shrunk repros into ``tests/fuzz_corpus/``,
  where a pytest harness replays every file as a tier-1 differential
  test forever after.
"""

from .corpus import load_repro, replay_record, repro_filename, write_repro
from .harness import FuzzConfig, FuzzSummary, run_fuzz, run_fuzz_iteration
from .oracle import (
    REFERENCE_TOGGLES,
    all_combos,
    diff_observations,
    observe,
    observe_reference,
)
from .scenarios import FuzzEdit, FuzzScenario, scenario_at
from .shrink import shrink_scenario

__all__ = [
    "FuzzConfig",
    "FuzzEdit",
    "FuzzScenario",
    "FuzzSummary",
    "REFERENCE_TOGGLES",
    "all_combos",
    "diff_observations",
    "load_repro",
    "observe",
    "observe_reference",
    "replay_record",
    "repro_filename",
    "run_fuzz",
    "run_fuzz_iteration",
    "scenario_at",
    "shrink_scenario",
    "write_repro",
]
