"""Differential tests: reference simulator == production, full and incremental.

The production simulator (decision cache, loser pre-screen, candidate
reuse, incremental worklist) must converge to exactly the RIBs the
spec-derived reference simulator (:mod:`repro.fuzz.reference`)
computes — attribute for attribute, provenance included — on every
topology family the repo can generate, from scratch and after every
policy edit of a fixed edit sequence.  The local-invariant violations
(with witnesses) and global verdicts built on those RIBs must match
along both production paths (full and incremental), and memo traffic
must not depend on which path re-converged the RIBs.
"""

import copy
import functools

import pytest

from repro.batfish.bgpsim import BgpSimulation, SimulationState
from repro.fuzz import reference
from repro.fuzz.edits import apply_edit_op, resolve_router
from repro.fuzz.oracle import (
    PATHS,
    canonical_ribs,
    diff_memo_traffic,
    diff_observations,
    observe,
    observe_reference,
)
from repro.fuzz.scenarios import FuzzEdit, FuzzScenario
from repro.topology.families import generate_network
from repro.topology.reference import build_reference_configs

# All seven families; the seeded ones also in roled/multi-homed and
# degree-placed variants.
CELLS = [
    ("star", 7, {}),
    ("chain", 6, {}),
    ("ring", 6, {}),
    ("mesh", 6, {}),
    ("dumbbell", 6, {}),
    ("random", 8, {"seed": 1, "roles": "c2i2h2"}),
    ("random", 8, {"seed": 2, "roles": "c2i2h1", "place": "degree"}),
    ("waxman", 8, {"seed": 1, "roles": "c2i2h2"}),
    ("waxman", 8, {"seed": 3, "roles": "c1i3h1p1", "place": "degree"}),
]

IDS = [
    f"{family}-{size}" + "".join(f"-{v}" for v in extra.values())
    for family, size, extra in CELLS
]

# Multi-origin prefixes, a decision-affecting ingress map, a filter
# hole and a withdrawal: the edits that move best paths around.
EDITS = [
    (1, "announce_shared_prefix"),
    (2, "bump_local_pref"),
    (4, "announce_shared_prefix"),
    (0, "permit_all_egress"),
    (3, "withdraw_network"),
]


def _configs(family, size, extra):
    return build_reference_configs(
        generate_network(family, size, **extra).topology
    )


def _full(configs):
    simulation = BgpSimulation(copy.deepcopy(configs))
    simulation.run()
    return canonical_ribs({name: simulation.rib(name) for name in configs})


def _incremental(state):
    simulation = state.simulation
    return canonical_ribs(
        {name: simulation.rib(name) for name in simulation._configs}
    )


@functools.lru_cache(maxsize=None)
def _observations(family, size, seed, roles, place):
    """The reference observation and one observation per production
    path of the cell under :data:`EDITS`."""
    scenario = FuzzScenario(
        family=family,
        size=size,
        topology_seed=seed,
        roles=roles,
        place=place,
        edits=tuple(FuzzEdit(index, op) for index, op in EDITS),
    )
    observed = {path: observe(scenario, path) for path in PATHS}
    return observe_reference(scenario), observed


def _cell_observations(family, size, extra):
    return _observations(
        family,
        size,
        extra.get("seed", 0),
        extra.get("roles", "default"),
        extra.get("place", "default"),
    )


@pytest.mark.parametrize("family,size,extra", CELLS, ids=IDS)
class TestReferenceDifferential:
    def test_full_converge_matches_reference(self, family, size, extra):
        configs = _configs(family, size, extra)
        expected = canonical_ribs(reference.simulate(configs))
        assert any(expected.values())  # something actually propagated
        assert _full(configs) == expected

    def test_every_edit_matches_reference_full_and_incremental(
        self, family, size, extra
    ):
        configs = dict(_configs(family, size, extra))
        state = SimulationState(copy.deepcopy(configs))
        applied = 0
        modes = set()
        for router_index, op in EDITS:
            router = resolve_router(router_index, configs)
            applied += apply_edit_op(op, configs, router)
            state.resimulate(copy.deepcopy(configs), {router})
            modes.add(state.last_stats.mode)
            expected = canonical_ribs(reference.simulate(configs))
            assert _full(configs) == expected, (router, op)
            assert _incremental(state) == expected, (router, op)
        assert applied  # the sequence really edited this network
        assert "incremental" in modes  # not every edit fell back

    @pytest.mark.parametrize("path", PATHS)
    def test_verdicts_match_reference(self, family, size, extra, path):
        expected, observed = _cell_observations(family, size, extra)
        assert diff_observations(expected, observed[path]) is None

    def test_memo_traffic_matches_between_paths(self, family, size, extra):
        _expected, observed = _cell_observations(family, size, extra)
        full, incremental = observed["full"], observed["incremental"]
        assert diff_memo_traffic(full, incremental) is None
        hits, _misses = incremental["memo"]
        assert hits > 0  # the repeat checks must actually hit the memo
