"""Incremental BGP re-simulation: differential proofs against full runs.

The contract under test: a :class:`SimulationState` given the set of
changed routers converges to *exactly* the state a from-scratch
:class:`BgpSimulation` reaches on the same configs — same RIBs (routes,
attributes, provenance paths) and same global-check verdicts — on every
topology family, for randomized single-router config edits.
"""

import copy
import random
import zlib

import pytest

from repro.batfish.bgpsim import (
    BgpSimulation,
    SimulationState,
    rib_snapshots,
)
from repro.lightyear.compose import (
    IncrementalGlobalChecker,
    _config_fingerprints,
    check_global_no_transit,
    reset_simulation_states,
)
from repro.netmodel.ip import Prefix
from repro.netmodel.routing_policy import (
    Action,
    RouteMap,
    RouteMapClause,
    SetCommunity,
)
from repro.obs import counters_snapshot, delta
from repro.topology.families import FAMILIES, generate_network
from repro.topology.reference import build_reference_configs

SIZE = 6


@pytest.fixture(autouse=True)
def _fresh_simulation_state():
    reset_simulation_states()
    yield
    reset_simulation_states()


def _network(family, size=SIZE):
    net = generate_network(family, size)
    return net.topology, build_reference_configs(net.topology)


def _assert_matches_full(state, configs, topology=None):
    """The warm state must equal a from-scratch run, RIBs and verdicts."""
    full = BgpSimulation(copy.deepcopy(configs))
    full.run()
    assert rib_snapshots(state.simulation) == rib_snapshots(full)
    if topology is not None:
        reset_simulation_states()  # force the check below to run cold
        cold = check_global_no_transit(copy.deepcopy(configs), topology)
        warm = _check_from_simulation(state, configs, topology)
        assert warm.holds == cold.holds
        assert warm.describe() == cold.describe()


def _check_from_simulation(state, configs, topology):
    """Run the global check against the *warm* state's simulation.

    Seeding the checker with the configs' current fingerprints makes
    the derived delta empty, so the verdict really is computed from the
    incrementally-converged RIBs (an empty-fingerprint checker would
    fall back to a fresh full convergence and prove nothing)."""
    checker = IncrementalGlobalChecker()
    checker._state = state
    checker._fingerprints = _config_fingerprints(configs)
    verdict = check_global_no_transit(configs, topology, checker=checker)
    assert checker.last_stats.incremental
    return verdict


# -- randomized single-router edits -------------------------------------------


def _replace_filter_with_permit_all(config, rng):
    names = [n for n in config.route_maps if n.startswith("FILTER_COMM_OUT_")]
    if not names:
        return False
    name = rng.choice(names)
    replacement = RouteMap(name)
    replacement.add_clause(RouteMapClause(seq=10, action=Action.PERMIT))
    config.route_maps[name] = replacement
    return True


def _drop_first_deny(config, rng):
    names = [n for n in config.route_maps if n.startswith("FILTER_COMM_OUT_")]
    for name in rng.sample(names, k=len(names)):
        route_map = config.route_maps[name]
        denies = [c for c in route_map.clauses if c.action is Action.DENY]
        if denies:
            route_map.clauses.remove(denies[0])
            return True
    return False


def _make_ingress_non_additive(config, rng):
    names = [n for n in config.route_maps if n.startswith("ADD_COMM_")]
    for name in rng.sample(names, k=len(names)):
        for clause in config.route_maps[name].clauses:
            for index, action in enumerate(clause.sets):
                if isinstance(action, SetCommunity) and action.additive:
                    clause.sets[index] = SetCommunity(
                        action.communities, additive=False
                    )
                    return True
    return False


def _detach_export_policy(config, rng):
    if config.bgp is None:
        return False
    attached = [
        n for n in config.bgp.neighbors.values() if n.export_policy is not None
    ]
    if not attached:
        return False
    rng.choice(attached).export_policy = None
    return True


def _announce_extra_network(config, rng):
    if config.bgp is None:
        return False
    bogus = Prefix.parse(f"203.0.{rng.randrange(1, 250)}.0/24")
    if bogus in config.bgp.networks:
        return False
    config.bgp.announce(bogus)
    return True


def _drop_a_neighbor(config, rng):
    """Removes one BGP session entirely (topology-affecting edit)."""
    if config.bgp is None or len(config.bgp.neighbors) < 2:
        return False
    ip = rng.choice(sorted(config.bgp.neighbors, key=str))
    config.bgp.remove_neighbor(ip)
    return True


MUTATIONS = [
    _replace_filter_with_permit_all,
    _drop_first_deny,
    _make_ingress_non_additive,
    _detach_export_policy,
    _announce_extra_network,
    _drop_a_neighbor,
]


class TestDifferentialPerFamily:
    """Randomized single-router edits: incremental == full, always."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_edit_sequence_matches_from_scratch(self, family, seed):
        topology, reference = _network(family)
        rng = random.Random(zlib.crc32(f"{family}:{seed}".encode()))
        current = copy.deepcopy(reference)
        state = SimulationState(copy.deepcopy(current))
        incremental_seen = 0
        for _step in range(6):
            nxt = copy.deepcopy(current)
            router = rng.choice(sorted(nxt))
            mutation = rng.choice(MUTATIONS)
            if not mutation(nxt[router], rng):
                _announce_extra_network(nxt[router], rng)
            stats = state.resimulate(copy.deepcopy(nxt), {router})
            incremental_seen += stats.incremental
            _assert_matches_full(state, nxt, topology)
            current = nxt
        assert incremental_seen == 6  # never silently fell back

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_revert_to_reference_matches(self, family):
        """Edit a router, then restore it: back to the reference state."""
        topology, reference = _network(family)
        rng = random.Random(7)
        state = SimulationState(copy.deepcopy(reference))
        broken = copy.deepcopy(reference)
        router = sorted(broken)[2]
        _replace_filter_with_permit_all(broken[router], rng) or (
            _announce_extra_network(broken[router], rng)
        )
        state.resimulate(copy.deepcopy(broken), {router})
        _assert_matches_full(state, broken, topology)
        restored = copy.deepcopy(reference)
        stats = state.resimulate(copy.deepcopy(restored), {router})
        assert stats.incremental
        _assert_matches_full(state, restored, topology)


#: Edits per cell of the strip/restore rotation below.
ROTATION_EDITS = 6

#: (family, size) -> (full, incremental) evaluations summed over the
#: rotation's edits: the full side converges each edited network from
#: scratch, the incremental side re-simulates from the previous state.
#: Each ceiling is the count measured when it was recorded.
ROTATION_CEILINGS = {
    ("chain", 4): (474, 88),
    ("chain", 6): (1800, 195),
    ("chain", 10): (9036, 507),
    ("chain", 14): (25584, 699),
    ("dumbbell", 4): (300, 48),
    ("dumbbell", 6): (816, 84),
    ("dumbbell", 10): (2604, 156),
    ("dumbbell", 14): (5400, 228),
    ("mesh", 4): (972, 348),
    ("mesh", 6): (5640, 1454),
    ("mesh", 9): (31032, 5667),
    ("mesh", 12): (102036, 13428),
    ("ring", 4): (666, 174),
    ("ring", 6): (1794, 313),
    ("ring", 10): (5742, 670),
    ("ring", 14): (15774, 1174),
    ("star", 4): (279, 126),
    ("star", 6): (705, 330),
    ("star", 10): (2133, 1026),
    ("star", 14): (4329, 2106),
}


def _strip_egress_filters(config):
    """A copy of ``config`` whose FILTER_COMM_OUT_* maps permit all."""
    stripped = copy.deepcopy(config)
    for name in stripped.route_maps:
        if name.startswith("FILTER_COMM_OUT_"):
            permit_all = RouteMap(name)
            permit_all.add_clause(RouteMapClause(seq=10, action=Action.PERMIT))
            stripped.route_maps[name] = permit_all
    return stripped


class TestEditRotationCounts:
    """The repair loop's canonical delta, as a count gate: strip one
    border router's egress filters, then restore them, rotating through
    the routers that have any.  Every edit must re-simulate
    incrementally and land on the RIBs of a from-scratch converge, and
    neither side may do more evaluations than its recorded ceiling.
    Simulations only read configs, so edits share unchanged routers."""

    @pytest.mark.parametrize(
        "cell", sorted(ROTATION_CEILINGS), ids=lambda cell: "%s-%d" % cell
    )
    def test_rotation_is_exact_and_within_ceilings(self, cell):
        family, size = cell
        _topology, reference = _network(family, size)
        routers = [
            name
            for name in sorted(reference)
            if any(
                map_name.startswith("FILTER_COMM_OUT_")
                for map_name in reference[name].route_maps
            )
        ]
        state = SimulationState(reference)
        configs = dict(reference)
        full_evaluations = incremental_evaluations = 0
        for step in range(ROTATION_EDITS):
            victim = routers[step % len(routers)]
            configs = dict(configs)
            configs[victim] = (
                _strip_egress_filters(reference[victim])
                if step % 2 == 0
                else reference[victim]
            )
            full = BgpSimulation(configs)
            full.run()
            full_evaluations += full.evaluations
            stats = state.resimulate(configs, {victim})
            incremental_evaluations += stats.evaluations
            assert stats.incremental, f"edit {step} fell back to full"
            assert rib_snapshots(state.simulation) == rib_snapshots(full)
        max_full, max_incremental = ROTATION_CEILINGS[cell]
        assert full_evaluations <= max_full, full_evaluations
        assert incremental_evaluations <= max_incremental, (
            incremental_evaluations
        )


class TestSimulationState:
    def test_no_change_resimulation_is_cheap_and_identical(self):
        _topology, configs = _network("mesh")
        state = SimulationState(copy.deepcopy(configs))
        stats = state.resimulate(copy.deepcopy(configs), set())
        assert stats.incremental
        assert stats.evaluations == 0
        assert stats.reused_entries > 0
        _assert_matches_full(state, configs)

    def test_unknown_delta_forces_full_run(self):
        _topology, configs = _network("ring")
        state = SimulationState(copy.deepcopy(configs))
        stats = state.resimulate(copy.deepcopy(configs), None)
        assert stats.mode == "full"

    def test_router_removal_and_return(self):
        topology, configs = _network("mesh")
        state = SimulationState(copy.deepcopy(configs))
        without = {
            name: copy.deepcopy(config)
            for name, config in configs.items()
            if name != "R4"
        }
        stats = state.resimulate(copy.deepcopy(without), set())
        assert stats.incremental  # removal detected without being named
        _assert_matches_full(state, without)
        stats = state.resimulate(copy.deepcopy(configs), set())
        assert stats.incremental
        _assert_matches_full(state, configs, topology)

    def test_state_before_convergence_raises(self):
        with pytest.raises(ValueError, match="no converged simulation"):
            SimulationState().simulation

    def test_stats_accounting(self):
        _topology, configs = _network("star")
        before = counters_snapshot()
        state = SimulationState(copy.deepcopy(configs))
        state.resimulate(copy.deepcopy(configs), set())
        moved = delta(before, counters_snapshot())
        assert moved["sim.full_converge.count"] == 1
        assert moved["sim.incremental_converge.count"] == 1
        assert moved["sim.full_evaluations"] > 0


class TestExplicitDeltas:
    """Callers that know what they changed skip fingerprint diffing."""

    def test_explicit_delta_skips_fingerprinting(self):
        topology, configs = _network("mesh")
        checker = IncrementalGlobalChecker()
        checker.simulate(copy.deepcopy(configs))
        assert checker._fingerprints  # baseline derived on the full run
        rng = random.Random(5)
        broken = copy.deepcopy(configs)
        assert _replace_filter_with_permit_all(broken["R3"], rng)
        checker.simulate(copy.deepcopy(broken), {"R3"})
        assert checker.last_stats.incremental
        assert checker.last_stats.dirty_routers == 1
        assert checker._fingerprints is None  # never computed

    def test_explicit_then_derived_falls_back_to_full(self):
        """A derived call after an explicit one must not trust the
        stale fingerprint baseline — it re-converges fully instead."""
        topology, configs = _network("ring")
        checker = IncrementalGlobalChecker()
        check_global_no_transit(
            copy.deepcopy(configs), topology, checker=checker
        )
        rng = random.Random(9)
        edited = copy.deepcopy(configs)
        assert _replace_filter_with_permit_all(edited["R4"], rng)
        check_global_no_transit(
            copy.deepcopy(edited), topology,
            checker=checker, changed_routers={"R4"},
        )
        assert checker.last_stats.incremental
        verdict = check_global_no_transit(
            copy.deepcopy(configs), topology, checker=checker
        )
        assert checker.last_stats.mode == "full"
        assert verdict.holds

    def test_explicit_delta_matches_cold_verdict(self):
        topology, configs = _network("chain")
        checker = IncrementalGlobalChecker()
        check_global_no_transit(
            copy.deepcopy(configs), topology, checker=checker
        )
        rng = random.Random(2)
        edited = copy.deepcopy(configs)
        assert _drop_first_deny(edited["R3"], rng)
        warm = check_global_no_transit(
            copy.deepcopy(edited), topology,
            checker=checker, changed_routers={"R3"},
        )
        reset_simulation_states()
        cold = check_global_no_transit(copy.deepcopy(edited), topology)
        assert warm.holds == cold.holds
        assert warm.describe() == cold.describe()

    def test_registry_ignores_explicit_deltas(self):
        """The process-local registry is shared state: a caller's
        private delta must not steer it (a wrong delta would corrupt
        every later caller's verdicts)."""
        topology, configs = _network("star")
        check_global_no_transit(copy.deepcopy(configs), topology)
        rng = random.Random(4)
        edited = copy.deepcopy(configs)
        _announce_extra_network(edited["R2"], rng)
        # Lie about the delta: claim nothing changed.  The registry
        # path must fingerprint anyway and still find R2.
        stats = check_global_no_transit(
            copy.deepcopy(edited), topology, changed_routers=set()
        ).sim_stats
        assert stats.incremental
        assert stats.dirty_routers == 1


class TestRoledDifferential:
    """The differential contract extends to role-assigned networks:
    multi-homed ISPs and multiple customers (the FAMILIES-parametrized
    tests above already cover random/waxman under their default
    single-homed role layout)."""

    @pytest.mark.parametrize("family", ["random", "waxman"])
    @pytest.mark.parametrize("roles", ["c2i2h2", "c1i2h1p1"])
    def test_edit_sequence_matches_from_scratch(self, family, roles):
        net = generate_network(family, 9, seed=3, roles=roles)
        topology = net.topology
        reference = build_reference_configs(topology)
        rng = random.Random(zlib.crc32(f"{family}:{roles}".encode()))
        current = copy.deepcopy(reference)
        state = SimulationState(copy.deepcopy(current))
        for _step in range(4):
            nxt = copy.deepcopy(current)
            router = rng.choice(sorted(nxt))
            mutation = rng.choice(MUTATIONS)
            if not mutation(nxt[router], rng):
                _announce_extra_network(nxt[router], rng)
            stats = state.resimulate(copy.deepcopy(nxt), {router})
            assert stats.incremental
            _assert_matches_full(state, nxt, topology)
            current = nxt


class TestBatchedEvaluation:
    """Per-session batched policy evaluation must never change a RIB."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_batched_equals_reference(self, family):
        """Prepared, batched evaluation converges to the RIBs of the
        reference simulator, which evaluates every route map per route
        through ``RouteMap.evaluate``."""
        from repro.fuzz.oracle import canonical_ribs
        from repro.fuzz.reference import simulate

        _topology, configs = _network(family)
        batched = BgpSimulation(copy.deepcopy(configs))
        batched.run()
        production = {name: batched.rib(name) for name in configs}
        assert canonical_ribs(production) == canonical_ribs(simulate(configs))

    def test_undefined_list_behaves_lazily_like_evaluate(self):
        """A clause referencing an undefined list must only reject the
        routes that actually consult it — batch preparation must not
        turn the lazy per-route error into an eager one."""
        from repro.netmodel.ip import Prefix
        from repro.netmodel.route import Route
        from repro.netmodel.routing_policy import (
            MatchCommunityList,
            MatchPrefixList,
            PolicyEvaluationError,
            RouteMap,
            RouteMapClause,
        )
        from repro.netmodel.device import RouterConfig, Vendor
        from repro.netmodel.prefixlist import PrefixList
        from repro.netmodel.ip import PrefixRange

        config = RouterConfig(hostname="X", vendor=Vendor.CISCO)
        narrow = PrefixList("NARROW")
        narrow.add("permit", PrefixRange.exact(Prefix.parse("10.0.0.0/24")))
        config.add_prefix_list(narrow)
        route_map = RouteMap("MIXED")
        guarded = RouteMapClause(seq=10, action=Action.DENY)
        guarded.matches.append(MatchPrefixList("NARROW"))
        guarded.matches.append(MatchCommunityList("UNDEFINED"))
        route_map.add_clause(guarded)
        route_map.add_clause(RouteMapClause(seq=20, action=Action.PERMIT))
        misses = Route(prefix=Prefix.parse("99.0.0.0/24"))
        hits = Route(prefix=Prefix.parse("10.0.0.0/24"))
        prepared = route_map.prepare(config)
        assert prepared.evaluate(misses).action is Action.PERMIT
        with pytest.raises(PolicyEvaluationError):
            prepared.evaluate(hits)
        # identical to the per-route path
        assert route_map.evaluate(misses, config).action is Action.PERMIT
        with pytest.raises(PolicyEvaluationError):
            route_map.evaluate(hits, config)


class TestWarmGlobalCheck:
    """check_global_no_transit reuses warm state per topology."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_repeat_check_goes_incremental_with_same_verdict(self, family):
        topology, configs = _network(family)
        first = check_global_no_transit(copy.deepcopy(configs), topology)
        assert first.sim_stats.mode == "full"
        second = check_global_no_transit(copy.deepcopy(configs), topology)
        assert second.sim_stats.incremental
        assert second.sim_stats.dirty_routers == 0
        assert second.holds == first.holds
        assert second.describe() == first.describe()

    def test_changed_router_is_fingerprint_detected(self):
        topology, configs = _network("mesh")
        good = check_global_no_transit(copy.deepcopy(configs), topology)
        assert good.holds
        rng = random.Random(3)
        broken = copy.deepcopy(configs)
        assert _replace_filter_with_permit_all(broken["R3"], rng)
        verdict = check_global_no_transit(broken, topology)
        stats = verdict.sim_stats
        assert stats.incremental
        assert stats.dirty_routers == 1
        assert not verdict.holds
        reset_simulation_states()
        cold = check_global_no_transit(copy.deepcopy(broken), topology)
        assert cold.describe() == verdict.describe()

    def test_explicit_checker_is_reused_across_rounds(self):
        topology, configs = _network("chain")
        checker = IncrementalGlobalChecker()
        check_global_no_transit(copy.deepcopy(configs), topology, checker=checker)
        assert checker.last_stats.mode == "full"
        check_global_no_transit(copy.deepcopy(configs), topology, checker=checker)
        assert checker.last_stats.incremental
