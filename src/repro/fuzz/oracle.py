"""Run one fuzz scenario under one toggle combination and observe it.

An *observation* is a plain JSON-able structure capturing everything
the conformance contract promises is toggle-independent: after every
policy edit, the full RIB of every router (attributes, provenance
path), the local-invariant violations with their witness routes, and
the global no-transit verdict with per-role breakdowns.  Symbolic memo
traffic is captured alongside — canonical memo keys make the hit/miss
pattern independent of how the RIBs were converged, so it is compared
between incremental twins that share every other toggle.

The oracle every combination is compared against is
:func:`observe_reference`: RIBs from the spec-derived reference
simulator (:mod:`repro.fuzz.reference`), violations and verdicts from
the production checks with every optimization off
(:data:`REFERENCE_TOGGLES`).
"""

from __future__ import annotations

import copy
import itertools
import json
import os
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core import toggles
from . import reference
from .edits import apply_edit_op, resolve_router
from .scenarios import FuzzScenario

__all__ = [
    "FUZZ_FACTORS",
    "REFERENCE_TOGGLES",
    "all_combos",
    "attempt",
    "canonical_ribs",
    "combo_label",
    "compare",
    "crash_signature",
    "diff_memo_traffic",
    "diff_observations",
    "memo_partner",
    "observe",
    "observe_reference",
]

# The fuzzed toggle axes, in canonical order.
FUZZ_FACTORS: Tuple[Tuple[str, Tuple[Any, ...]], ...] = (
    ("incremental_simulation", (False, True)),
    ("memoization", (False, True)),
)

# The toggles the reference observation runs the production checks
# under (its RIBs never touch the production simulator).
REFERENCE_TOGGLES: Dict[str, Any] = {
    "incremental_simulation": False,
    "memoization": False,
}


def all_combos() -> List[Dict[str, Any]]:
    """Every toggle combination (4), in a fixed enumeration order
    starting from the all-off corner."""
    names = [name for name, _values in FUZZ_FACTORS]
    return [
        dict(zip(names, values))
        for values in itertools.product(
            *(values for _name, values in FUZZ_FACTORS)
        )
    ]


def memo_partner(combo: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """The combination whose memo traffic must equal this one's.

    Canonical memo keys make cache traffic independent of whether the
    RIBs were re-converged incrementally, so a memoized incremental
    combination is compared against its full-simulation twin.  ``None``
    when no comparison applies (memoization off, or already the full
    side).
    """
    if not combo.get("memoization") or not combo.get("incremental_simulation"):
        return None
    return {**combo, "incremental_simulation": False}


def _canonical_route(route) -> list:
    return [
        str(route.prefix),
        list(route.as_path.asns),
        sorted(str(community) for community in route.communities),
        route.med,
        route.local_pref,
        str(route.next_hop),
    ]


def canonical_ribs(ribs: Dict[str, dict]) -> Dict[str, Dict[str, list]]:
    """Production and reference RIBs in one comparable form (entries of
    either kind carry ``route``/``learned_from``/``origin_router``/
    ``path``)."""
    return {
        name: {
            str(entry.route.prefix): (
                _canonical_route(entry.route)
                + [
                    entry.learned_from or "",
                    entry.origin_router,
                    list(entry.path),
                ]
            )
            for entry in ribs[name].values()
        }
        for name in sorted(ribs)
    }


def _production_ribs(state) -> Dict[str, dict]:
    simulation = state.simulation
    return {name: simulation.rib(name) for name in simulation._configs}


def _step_observation(ribs, configs, topology, invariants) -> dict:
    from ..lightyear import check_global_no_transit, verify_invariants

    violations = verify_invariants(copy.deepcopy(configs), invariants)
    check = check_global_no_transit(copy.deepcopy(configs), topology)
    return {
        "ribs": canonical_ribs(ribs),
        "violations": [
            [
                violation.router,
                violation.policy_name,
                violation.message,
                _canonical_route(violation.witness),
            ]
            for violation in violations
        ],
        "global": {
            "holds": check.holds,
            "detail": check.describe(),
            "roles": dict(sorted(check.role_verdicts.items())),
        },
    }


def observe(scenario: FuzzScenario, combo: Dict[str, Any]) -> dict:
    """Execute the scenario under the toggle combination.

    Raises whatever generation raises for impossible coordinates (the
    shrinker treats that as "not a valid smaller input").  All warm
    process-local state (memo caches, global-check simulation states)
    is reset on entry so observations are hermetic per combination.
    """
    from ..batfish.bgpsim import SimulationState

    state = SimulationState()

    def converge(configs, changed):
        if changed is None:
            state.converge(copy.deepcopy(configs))
        else:
            state.resimulate(copy.deepcopy(configs), changed)
        return _production_ribs(state)

    return _observe(scenario, combo, converge)


def observe_reference(scenario: FuzzScenario) -> dict:
    """The oracle's observation: RIBs from the reference simulator,
    violations and verdicts from the production checks run under
    :data:`REFERENCE_TOGGLES`."""

    def converge(configs, _changed):
        return reference.simulate(copy.deepcopy(configs))

    return _observe(scenario, REFERENCE_TOGGLES, converge)


def _observe(scenario: FuzzScenario, combo: Dict[str, Any], converge) -> dict:
    """Walk the scenario's edit sequence, observing after the initial
    convergence and after every edit.  ``converge(configs, changed)``
    returns the RIBs for ``configs``; ``changed`` is ``None`` for the
    initial convergence, else the set of edited routers."""
    from ..lightyear import no_transit_invariants
    from ..lightyear.compose import reset_simulation_states
    from ..symbolic.memo import cache_totals, reset_caches
    from ..topology.reference import build_reference_configs

    with toggles.scoped(**combo):
        reset_caches()
        reset_simulation_states()
        topology = materialize_scenario(scenario).topology
        configs = build_reference_configs(topology)
        invariants = no_transit_invariants(topology)
        hits_before, misses_before = cache_totals()
        steps = [
            {"applied": None}
            | _step_observation(
                converge(configs, None), configs, topology, invariants
            )
        ]
        for edit in scenario.edits:
            router = resolve_router(edit.router_index, configs)
            applied = apply_edit_op(edit.op, configs, router)
            steps.append(
                {"applied": [router, edit.op, applied]}
                | _step_observation(
                    converge(configs, {router}), configs, topology, invariants
                )
            )
        hits_after, misses_after = cache_totals()
        reset_simulation_states()
        return {
            "scenario": scenario.key(),
            "steps": steps,
            "memo": [hits_after - hits_before, misses_after - misses_before],
        }


def materialize_scenario(scenario: FuzzScenario):
    """The scenario's network.  Raises ``ValueError`` when its
    coordinates cannot generate one (the only expected failure)."""
    from ..experiments.no_transit import materialize_network

    return materialize_network(
        scenario.family,
        scenario.size,
        roles=scenario.roles,
        topo=scenario.topo,
        topology_seed=scenario.topology_seed,
        place=scenario.place,
    )


def _first_rib_divergence(base: dict, other: dict) -> str:
    for router in sorted(set(base) | set(other)):
        left, right = base.get(router), other.get(router)
        if left == right:
            continue
        left, right = left or {}, right or {}
        for prefix in sorted(set(left) | set(right)):
            if left.get(prefix) != right.get(prefix):
                return (
                    f"router {router} prefix {prefix}: "
                    f"expected={left.get(prefix)} vs {right.get(prefix)}"
                )
    return "rib key sets differ"


def diff_observations(expected: dict, other: dict) -> Optional[str]:
    """The first semantic divergence between two observations, or
    ``None`` when they agree (memo traffic is compared separately —
    see :func:`diff_memo_traffic`)."""
    base_steps, other_steps = expected["steps"], other["steps"]
    if len(base_steps) != len(other_steps):
        return (
            f"step counts differ: {len(base_steps)} vs {len(other_steps)}"
        )
    for index, (left, right) in enumerate(zip(base_steps, other_steps)):
        if left["applied"] != right["applied"]:
            return (
                f"step {index}: edit applicability diverged "
                f"({left['applied']} vs {right['applied']})"
            )
        if left["ribs"] != right["ribs"]:
            return f"step {index}: RIBs diverged — " + _first_rib_divergence(
                left["ribs"], right["ribs"]
            )
        if left["violations"] != right["violations"]:
            return (
                f"step {index}: invariant violations diverged "
                f"(expected {len(left['violations'])}: "
                f"{left['violations']} vs {len(right['violations'])}: "
                f"{right['violations']})"
            )
        if left["global"] != right["global"]:
            return (
                f"step {index}: global verdict diverged "
                f"({left['global']} vs {right['global']})"
            )
    return None


def diff_memo_traffic(left: dict, right: dict) -> Optional[str]:
    """Memo hit/miss divergence between two incremental-twin runs."""
    if left["memo"] != right["memo"]:
        return (
            f"memo traffic diverged: full {left['memo']} vs "
            f"incremental {right['memo']}"
        )
    return None


# -- crashes and one-shot comparisons ------------------------------------------


def attempt(
    side: str, run: Callable[..., dict], *args: Any
) -> Tuple[Optional[dict], Optional[str]]:
    """``(run(*args), None)``, or ``(None, crash)`` when it raises.

    The crash description names the side, the exception type and the
    innermost frame: ``"<side> crashed: <Type> at <file>:<line> in
    <function>: <message>"``.
    """
    try:
        return run(*args), None
    except Exception as exc:
        frames = traceback.extract_tb(exc.__traceback__)
        site = (
            f"{os.path.basename(frames[-1].filename)}:{frames[-1].lineno} "
            f"in {frames[-1].name}"
            if frames
            else "unknown site"
        )
        return None, f"{side} crashed: {type(exc).__name__} at {site}: {exc}"


def crash_signature(crash: str) -> str:
    """The side, exception type and site of a crash description (its
    message dropped), for matching one crash against another."""
    return ": ".join(crash.split(": ", 2)[:2])


def combo_label(combo: Dict[str, Any]) -> str:
    return "combo " + json.dumps(combo, sort_keys=True)


def compare(
    scenario: FuzzScenario,
    combo: Dict[str, Any],
    twin: Optional[Dict[str, Any]] = None,
) -> Optional[Tuple[str, str]]:
    """Run one comparison from scratch.

    Without ``twin``, the combination's observation is compared with
    the reference's; with it, the combination's memo traffic is
    compared with the twin's.  Returns ``(check, detail)`` — check
    ``"semantic"``, ``"memo"`` or ``"crash"`` — or ``None`` when the
    two sides agree.
    """
    if twin is None:
        expected, crash = attempt("reference", observe_reference, scenario)
    else:
        expected, crash = attempt(combo_label(twin), observe, scenario, twin)
    if crash is None:
        actual, crash = attempt(combo_label(combo), observe, scenario, combo)
    if crash is not None:
        return "crash", crash
    if twin is None:
        mismatch = diff_observations(expected, actual)
        return None if mismatch is None else ("semantic", mismatch)
    mismatch = diff_memo_traffic(expected, actual)
    return None if mismatch is None else ("memo", mismatch)
