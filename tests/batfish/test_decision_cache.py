"""Decision-cache property and differential tests.

The cached ``RibEntry.decision_key`` tuple must order entries exactly
as the reference simulator's attribute cascade
(:func:`repro.fuzz.reference.prefers`) does (property-tested over
randomized pairs), the ordering must be *total* on decision-relevant
attributes (the ``"" < ""`` local-origination tie regression), and
best-path selection must converge tie-heavy meshes — every router
originating the same prefix — to the reference's RIBs, under full and
incremental simulation alike.
"""

import random

from repro.batfish.bgpsim import (
    BgpSimulation,
    RibEntry,
    SimulationState,
    _same_entry,
    rib_snapshots,
)
from repro.cisco import parse_cisco
from repro.fuzz.oracle import canonical_ribs
from repro.fuzz.reference import prefers, simulate
from repro.netmodel import Prefix
from repro.netmodel.aspath import AsPath
from repro.netmodel.route import Route
from repro.obs import counters_snapshot, delta
from repro.topology.families import generate_network
from repro.topology.reference import build_reference_configs


PREFIX = Prefix.parse("10.0.0.0/16")

ROUTERS = ("R1", "R2", "R3", "R4")


def _random_entry(rng):
    """A RibEntry varying every decision-relevant attribute.

    Attributes outside the decision process (communities, next-hop) are
    held constant: the decision key is blind to them by design, so only
    decision-distinguishable pairs are meaningful for ordering.
    """
    learned_from = rng.choice((None,) + ROUTERS)
    route = Route(
        prefix=PREFIX,
        as_path=AsPath.of(tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 3)))),
        med=rng.choice((0, 5, 10)),
        local_pref=rng.choice((50, 100, 200)),
    )
    origin = rng.choice(ROUTERS)
    return RibEntry(
        route=route,
        learned_from=learned_from,
        origin_router=origin,
        path=() if learned_from is None else (origin,),
    )


def _pairs(count=300, seed=7):
    rng = random.Random(seed)
    return [(_random_entry(rng), _random_entry(rng)) for _ in range(count)]


class TestDecisionOrder:
    def test_tuple_matches_reference_cascade(self):
        """One tuple ``<`` must agree with the reference's attribute
        cascade on every randomized pair, in both directions."""
        for a, b in _pairs():
            assert (a.decision_key < b.decision_key) == prefers(a, b)
            assert (b.decision_key < a.decision_key) == prefers(b, a)

    def test_better_antisymmetric_and_total(self):
        """For entries that differ in any decision-relevant attribute,
        exactly one direction wins — in the tuple and in the cascade."""
        for a, b in _pairs(seed=11):
            if a.decision_key == b.decision_key:
                # Decision-indistinguishable: neither wins, and the
                # cascade agrees with the tuple about the tie.
                assert not BgpSimulation._better(a, b)
                assert not BgpSimulation._better(b, a)
                assert not prefers(a, b) and not prefers(b, a)
            else:
                assert BgpSimulation._better(a, b) != BgpSimulation._better(b, a)
                assert prefers(a, b) != prefers(b, a)

    def test_local_origination_tie_is_ordered(self):
        """Two locally originated entries with equal attributes must be
        strictly ordered by originator — the historical fall-through
        compared ``"" < ""`` and silently kept the incumbent."""
        a = RibEntry(route=Route(prefix=PREFIX), learned_from=None, origin_router="R1")
        b = RibEntry(route=Route(prefix=PREFIX), learned_from=None, origin_router="R2")
        assert BgpSimulation._better(a, b)
        assert not BgpSimulation._better(b, a)

    def test_same_entry_agrees_with_decision_key(self):
        """_same_entry must never call indistinguishable a pair whose
        decision keys differ."""
        for a, b in _pairs(seed=13):
            if _same_entry(a, b):
                assert a.decision_key == b.decision_key


def _tie_mesh(extra=None):
    """A 4-router full mesh where every router originates the *same*
    prefix: every (router, prefix) cell is a pure tie-break decision."""
    extra = extra or {}
    routers = ROUTERS
    texts = {}
    for i, name in enumerate(routers, start=1):
        lines = [f"hostname {name}"]
        eth = 0
        for j in range(1, len(routers) + 1):
            if j == i:
                continue
            low, high = sorted((i, j))
            lines.append(f"interface eth{eth}")
            lines.append(f" ip address 10.{low}.{high}.{i} 255.255.255.0")
            eth += 1
        lines.append(f"router bgp {i}")
        lines.append(" network 99.0.0.0 mask 255.255.0.0")
        for j in range(1, len(routers) + 1):
            if j == i:
                continue
            low, high = sorted((i, j))
            lines.append(f" neighbor 10.{low}.{high}.{j} remote-as {j}")
        lines.extend(extra.get(name, ()))
        texts[name] = "\n".join(lines) + "\n"
    return {
        name: parse_cisco(text, filename=name).config
        for name, text in texts.items()
    }


def _reference_ribs(configs):
    return canonical_ribs(simulate(configs))


def _production_ribs(simulation):
    return canonical_ribs(
        {name: simulation.rib(name) for name in simulation._configs}
    )


class TestTieHeavyMeshDifferential:
    def test_tie_mesh_matches_reference(self):
        sim = BgpSimulation(_tie_mesh())
        sim.run()
        assert _production_ribs(sim) == _reference_ribs(_tie_mesh())
        # Every router resolves the contested prefix to a winner.
        winner = {
            name: rib[Prefix.parse("99.0.0.0/16")]
            for name, rib in rib_snapshots(sim).items()
        }
        assert set(winner) == set(ROUTERS)

    def test_incremental_matches_full_on_ties(self):
        """Changing one router of an all-ties mesh must leave incremental
        re-simulation, a fresh full run and the reference on identical
        RIBs (the unified no-op install check keeps dirty tracking
        identical across paths)."""
        changed = {"R2": (" network 98.0.0.0 mask 255.255.0.0",)}
        state = SimulationState(_tie_mesh())
        state.resimulate(_tie_mesh(changed), changed_routers=["R2"])
        assert state.last_stats.mode == "incremental"
        full = BgpSimulation(_tie_mesh(changed))
        full.run()
        expected = _reference_ribs(_tie_mesh(changed))
        assert _production_ribs(full) == expected
        assert _production_ribs(state.simulation) == expected


class TestReuseCounter:
    def test_mesh_converge_reuses_candidates(self):
        """A multi-round mesh fixpoint must count per-session candidate
        reuses — the counter that silently read 0 in every bench row."""
        configs = build_reference_configs(generate_network("mesh", 6).topology)
        before = counters_snapshot()
        sim = BgpSimulation(configs)
        sim.run()
        moved = delta(before, counters_snapshot())
        assert moved.get("route.routes_reused", 0) > 0
        assert moved.get("route.routes_built", 0) > 0
