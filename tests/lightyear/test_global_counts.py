"""Deterministic-count gates on the simulation-based global check.

The border check asks the simulator what each external attachment is
exported, and the simulator decides through the export maps it already
bound once per convergence.  Counts, not wall time: how often a map is
evaluated or bound is a pure function of the configs.
"""

import copy
from collections import Counter

from repro.lightyear.compose import (
    IncrementalGlobalChecker,
    check_global_no_transit,
)
from repro.netmodel.routing_policy import Action, RouteMap, RouteMapClause
from repro.topology.families import generate_network
from repro.topology.reference import build_reference_configs


def _strip_egress_filters(config):
    """A copy of ``config`` whose FILTER_COMM_OUT_* maps permit all."""
    stripped = copy.deepcopy(config)
    for name in stripped.route_maps:
        if name.startswith("FILTER_COMM_OUT_"):
            permit_all = RouteMap(name)
            permit_all.add_clause(RouteMapClause(seq=10, action=Action.PERMIT))
            stripped.route_maps[name] = permit_all
    return stripped


def test_mesh16_single_router_edit_binds_each_export_map_once(monkeypatch):
    """Re-checking a mesh-16 after one router's egress filters are
    stripped evaluates no route map unprepared (a separate export
    evaluator made 2,040 such calls per edit) and binds each
    (router, map) pair at most once."""
    topology = generate_network("mesh", 16).topology
    configs = build_reference_configs(topology)
    checker = IncrementalGlobalChecker()
    assert check_global_no_transit(configs, topology, checker=checker).holds
    victim = min(
        name
        for name, config in configs.items()
        if any(name.startswith("FILTER_COMM_OUT_") for name in config.route_maps)
    )
    edited = dict(configs)
    edited[victim] = _strip_egress_filters(configs[victim])

    evaluations = 0
    prepared = Counter()
    real_evaluate, real_prepare = RouteMap.evaluate, RouteMap.prepare

    def evaluate(self, route, context):
        nonlocal evaluations
        evaluations += 1
        return real_evaluate(self, route, context)

    def prepare(self, context):
        prepared[(context.hostname, self.name)] += 1
        return real_prepare(self, context)

    monkeypatch.setattr(RouteMap, "evaluate", evaluate)
    monkeypatch.setattr(RouteMap, "prepare", prepare)
    verdict = check_global_no_transit(
        edited, topology, checker=checker, changed_routers={victim}
    )
    assert not verdict.holds
    assert verdict.sim_stats.incremental
    assert evaluations == 0
    assert prepared and max(prepared.values()) == 1
    export_maps = {
        (peer.router, neighbor.export_policy)
        for peer in topology.externals
        for neighbor in [edited[peer.router].bgp.get_neighbor(peer.peer_ip)]
        if neighbor.export_policy is not None
    }
    # Every attachment's export map was bound, the stripped one included.
    assert (victim, f"FILTER_COMM_OUT_{victim}") in export_maps
    assert export_maps <= set(prepared)
