"""Observe one fuzz scenario along one path, and compare the paths.

An *observation* is a plain JSON-able structure capturing everything
the conformance contract promises is path-independent: after every
policy edit, the full RIB of every router (attributes, provenance
path), the prefixes each external attachment is exported, the
local-invariant violations with their witness routes, and the global
no-transit verdict with per-role breakdowns.

Every scenario is observed three times:

* the *reference* (:func:`observe_reference`) — RIBs and exports from
  the spec-derived reference simulator (:mod:`repro.fuzz.reference`),
  violations and verdicts from the production checks run cold:
  ``reset_caches()`` before every invariant and a fresh
  :class:`~repro.lightyear.compose.IncrementalGlobalChecker` per step;
* the production *full* path (``observe(scenario, "full")``) — a
  from-scratch ``SimulationState.converge`` at every step and a fresh
  global checker per step;
* the production *incremental* path (``observe(scenario,
  "incremental")``) — ``SimulationState.resimulate`` with the edited
  router named, and the process's warm registry checker for the
  global check.

Both production observations must equal the reference's; a
divergence in what an attachment is exported is an ``"exports"``
finding, any other an ``"semantic"`` one.  Their symbolic memo traffic
must also equal each other's: canonical memo keys make the hit/miss
pattern independent of how the RIBs were converged.
"""

from __future__ import annotations

import copy
import functools
import os
import traceback
from typing import Any, Callable, Dict, Optional, Tuple

from . import reference
from .edits import apply_edit_op, resolve_router
from .scenarios import FuzzScenario

__all__ = [
    "PATHS",
    "attempt",
    "canonical_ribs",
    "compare",
    "diff_memo_traffic",
    "diff_observations",
    "finding_signature",
    "first_divergence",
    "observe",
    "observe_reference",
]

# The production paths every scenario is observed along, in check order.
PATHS: Tuple[str, ...] = ("full", "incremental")


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


def _step_observation(ribs, topology, exported, violations, check) -> dict:
    """One step; ``exported(router, peer_ip)`` is the side's prefix set
    for one external attachment."""
    return {
        "ribs": canonical_ribs(ribs),
        "exports": {
            f"{peer.router} -> {peer.peer_ip}": sorted(
                str(prefix) for prefix in exported(peer.router, peer.peer_ip)
            )
            for peer in topology.externals
        },
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


def observe(scenario: FuzzScenario, path: str) -> dict:
    """Execute the scenario along the production ``path`` (one of
    :data:`PATHS`).

    Raises whatever generation raises for impossible coordinates (the
    shrinker treats that as "not a valid smaller input").  All warm
    process-local state (memo caches, global-check simulation states)
    is reset on entry so observations are hermetic per path; the
    returned ``"memo"`` is the ``[hits, misses]`` traffic since then.
    """
    from ..batfish.bgpsim import SimulationState
    from ..lightyear import check_global_no_transit, verify_invariants
    from ..lightyear.compose import IncrementalGlobalChecker
    from ..obs import counters_snapshot
    from ..symbolic.memo import memo_totals

    if path not in PATHS:
        raise ValueError(f"unknown path {path!r} (known: {', '.join(PATHS)})")
    incremental = path == "incremental"
    state = SimulationState()

    def step(configs, changed, topology, invariants):
        if incremental and changed is not None:
            state.resimulate(copy.deepcopy(configs), changed)
        else:
            state.converge(copy.deepcopy(configs))
        simulation = state.simulation
        ribs = {name: simulation.rib(name) for name in simulation._configs}
        checker = None if incremental else IncrementalGlobalChecker()
        return _step_observation(
            ribs,
            topology,
            simulation.exported,
            verify_invariants(copy.deepcopy(configs), invariants),
            check_global_no_transit(copy.deepcopy(configs), topology, checker),
        )

    observation = _observe(scenario, step)
    observation["memo"] = list(memo_totals(counters_snapshot()))
    return observation


def observe_reference(scenario: FuzzScenario) -> dict:
    """The oracle's observation: RIBs from the reference simulator,
    violations and verdicts from the production checks run cold (no
    memo entry survives from one invariant to the next, and no warm
    simulation state from one step to the next)."""
    from ..lightyear import check_global_no_transit, verify_invariants
    from ..lightyear.compose import IncrementalGlobalChecker
    from ..symbolic.memo import reset_caches

    def step(configs, _changed, topology, invariants):
        configs = copy.deepcopy(configs)
        violations = []
        for invariant in invariants:
            reset_caches()
            violations.extend(verify_invariants(configs, [invariant]))
        ribs = reference.simulate(configs)
        return _step_observation(
            ribs,
            topology,
            functools.partial(reference.exported, ribs, configs),
            violations,
            check_global_no_transit(
                configs, topology, IncrementalGlobalChecker()
            ),
        )

    return _observe(scenario, step)


def _observe(scenario: FuzzScenario, step) -> dict:
    """Walk the scenario's edit sequence, observing after the initial
    convergence and after every edit.  ``step(configs, changed,
    topology, invariants)`` returns one step's observation; ``changed``
    is ``None`` for the initial convergence, else the set of edited
    routers."""
    from ..lightyear import no_transit_invariants
    from ..lightyear.compose import reset_simulation_states
    from ..symbolic.memo import reset_caches
    from ..topology.reference import build_reference_configs

    reset_caches()
    reset_simulation_states()
    try:
        topology = materialize_scenario(scenario).topology
        configs = build_reference_configs(topology)
        invariants = no_transit_invariants(topology)
        steps = [
            {"applied": None} | step(configs, None, topology, invariants)
        ]
        for edit in scenario.edits:
            router = resolve_router(edit.router_index, configs)
            applied = apply_edit_op(edit.op, configs, router)
            steps.append(
                {"applied": [router, edit.op, applied]}
                | step(configs, {router}, topology, invariants)
            )
    finally:
        reset_simulation_states()
    return {"scenario": scenario.key(), "steps": steps}


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


def diff_observations(
    expected: dict, other: dict
) -> Optional[Tuple[str, str]]:
    """The first divergence between two observations as ``(check,
    detail)`` — check ``"exports"`` when an attachment's exports
    diverge, else ``"semantic"`` — or ``None`` when they agree (memo
    traffic is compared separately — see :func:`diff_memo_traffic`)."""
    base_steps, other_steps = expected["steps"], other["steps"]
    if len(base_steps) != len(other_steps):
        return "semantic", (
            f"step counts differ: {len(base_steps)} vs {len(other_steps)}"
        )
    for index, (left, right) in enumerate(zip(base_steps, other_steps)):
        if left["applied"] != right["applied"]:
            return "semantic", (
                f"step {index}: edit applicability diverged "
                f"({left['applied']} vs {right['applied']})"
            )
        if left["ribs"] != right["ribs"]:
            return "semantic", (
                f"step {index}: RIBs diverged — "
                + _first_rib_divergence(left["ribs"], right["ribs"])
            )
        if left["exports"] != right["exports"]:
            attachment = min(
                key
                for key in set(left["exports"]) | set(right["exports"])
                if left["exports"].get(key) != right["exports"].get(key)
            )
            return "exports", (
                f"step {index}: exports diverged — attachment {attachment}: "
                f"expected={left['exports'].get(attachment)} vs "
                f"{right['exports'].get(attachment)}"
            )
        if left["violations"] != right["violations"]:
            return "semantic", (
                f"step {index}: invariant violations diverged "
                f"(expected {len(left['violations'])}: "
                f"{left['violations']} vs {len(right['violations'])}: "
                f"{right['violations']})"
            )
        if left["global"] != right["global"]:
            return "semantic", (
                f"step {index}: global verdict diverged "
                f"({left['global']} vs {right['global']})"
            )
    return None


def diff_memo_traffic(full: dict, incremental: dict) -> Optional[str]:
    """Memo hit/miss divergence between the two production paths."""
    if full["memo"] != incremental["memo"]:
        return (
            f"memo traffic diverged: full {full['memo']} vs "
            f"incremental {incremental['memo']}"
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


def finding_signature(check: str, detail: str) -> str:
    """What a finding must keep while it shrinks: its check and the
    side it names — plus, for a crash, the exception type and site (the
    message dropped)."""
    kept = 2 if check == "crash" else 1
    return ": ".join([check] + detail.split(": ", 2)[:kept])


def first_divergence(
    scenario: FuzzScenario,
) -> Tuple[Optional[dict], Optional[Tuple[str, str]]]:
    """Observe the scenario three times and compare, from scratch.

    Returns the reference observation (``None`` if it crashed) and the
    first finding as ``(check, detail)`` — check ``"semantic"``,
    ``"exports"``, ``"memo"`` or ``"crash"`` — or ``None`` when every
    path agrees.  Every detail names the diverging path.
    """
    expected, crash = attempt("reference", observe_reference, scenario)
    if crash is not None:
        return None, ("crash", crash)
    observed: Dict[str, dict] = {}
    for path in PATHS:
        actual, crash = attempt(f"{path} path", observe, scenario, path)
        if crash is not None:
            return expected, ("crash", crash)
        found = diff_observations(expected, actual)
        if found is not None:
            return expected, (found[0], f"{path} path: {found[1]}")
        observed[path] = actual
    mismatch = diff_memo_traffic(observed["full"], observed["incremental"])
    if mismatch is not None:
        return expected, ("memo", f"incremental path: {mismatch}")
    return expected, None


def compare(scenario: FuzzScenario) -> Optional[Tuple[str, str]]:
    """The scenario's first finding, ``(check, detail)``, or ``None``."""
    return first_divergence(scenario)[1]
