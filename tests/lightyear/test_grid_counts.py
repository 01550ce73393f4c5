"""Deterministic-count gates on the Lightyear candidate grid.

Counts, not wall time: the number of routes a local check materializes
is a pure function of the configs, so these gates repeat exactly on any
machine.
"""

from repro.experiments.no_transit import run_no_transit_experiment
from repro.lightyear import (
    EgressFilterInvariant,
    no_transit_invariants,
    verify_invariant,
)
from repro.lightyear.compose import reset_simulation_states
from repro.netmodel.route import ROUTES_BUILT
from repro.symbolic import reset_caches
from repro.topology.families import generate_network
from repro.topology.reference import build_reference_configs

#: Routes built by one cold star-16 synthesis (LLM seed 7), grid and
#: BGP simulation together.  Measured at 3,285; building the full
#: product and filtering it afterwards cost 67,762.
STAR16_ROUTES_BUILT_CEILING = 3_300


def test_mesh16_egress_check_builds_only_admitted_routes():
    topology = generate_network("mesh", 16).topology
    configs = build_reference_configs(topology)
    invariant = next(
        item
        for item in no_transit_invariants(topology)
        if isinstance(item, EgressFilterInvariant)
    )
    # The map tests 14 tags, so the community axis holds 107 sets and
    # the full grid 1 prefix x 107 sets x 3 protocols = 321 routes per
    # forbidden tag.  Only the 15 sets carrying the tag are admitted,
    # and the map tests no protocol, so one protocol suffices.
    assert len(invariant.forbidden) == 14
    reset_caches()
    before = ROUTES_BUILT.value
    assert verify_invariant(configs[invariant.router], invariant) is None
    assert ROUTES_BUILT.value - before == 15 * len(invariant.forbidden)
    reset_caches()


def test_star16_synthesis_routes_built_ceiling():
    reset_caches()
    reset_simulation_states()
    before = ROUTES_BUILT.value
    experiment = run_no_transit_experiment(router_count=16, seed=7)
    built = ROUTES_BUILT.value - before
    reset_caches()
    reset_simulation_states()
    assert experiment.result.verified
    assert built <= STAR16_ROUTES_BUILT_CEILING, built
