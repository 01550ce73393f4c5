"""Differential oracle for the Lightyear local checks' candidate grid.

Production (:meth:`CandidateUniverse.routes` and
:mod:`repro.lightyear.verifier`) filters each grid axis by the
question's constraint before forming the product, walks one protocol
per grid point when no policy tests protocol, and decides the egress
check by the firing clause alone.

The oracle here is the plain form of the same search: build the whole
prefix × community-set × protocol product, keep the routes the
constraint admits, and run every kept route through
:meth:`RouteMap.evaluate` on the unprepared map.  Both must visit the
same candidates in the same order and reach the same verdict with an
equal witness route, on reference configs, on every fault-catalog
injection, and on generated maps.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.validation import CELLS
from repro.cisco import generate_cisco
from repro.lightyear import (
    EgressFilterInvariant,
    EgressPrependInvariant,
    IngressTagInvariant,
    no_transit_invariants,
    verify_invariant,
)
from repro.lightyear.verifier import (
    InvariantViolation,
    _attached_policy,
    _missing_policy_violation,
)
from repro.llm import fault_designations, synthesis_fault_catalog
from repro.llm.faults import DraftState, FaultTargetError
from repro.netmodel import (
    Action,
    BgpNeighbor,
    Community,
    CommunityList,
    CommunityListEntry,
    Ipv4Address,
    MatchCommunityInline,
    MatchCommunityList,
    MatchPrefixList,
    MatchPrefixRanges,
    MatchProtocol,
    PolicyEvaluationError,
    Prefix,
    PrefixList,
    PrefixRange,
    Protocol,
    Route,
    RouteMap,
    RouteMapClause,
    RouterConfig,
    SetAsPathPrepend,
    SetCommunity,
)
from repro.symbolic import CandidateUniverse, RouteConstraint, reset_caches
from repro.topology.families import generate_network
from repro.topology.reference import build_reference_configs


@pytest.fixture(autouse=True)
def clean_caches():
    reset_caches()
    yield
    reset_caches()


# -- the oracle ----------------------------------------------------------------


def oracle_routes(
    universe: CandidateUniverse, constraint: Optional[RouteConstraint] = None
) -> Iterator[Route]:
    """The whole product, then the constraint."""
    for prefix in universe.candidate_prefixes():
        for communities in universe.candidate_community_sets():
            for protocol in universe.candidate_protocols():
                route = Route(
                    prefix=prefix, communities=communities, protocol=protocol
                )
                if constraint is None or constraint.admits(route):
                    yield route


def _oracle_ingress_tag(config, route_map, invariant):
    universe = CandidateUniverse()
    universe.add_policy(config, route_map)
    for route in oracle_routes(universe):
        try:
            outcome = route_map.evaluate(route, config)
        except PolicyEvaluationError:
            continue
        if outcome.action is Action.PERMIT and (
            invariant.community not in outcome.route.communities
        ):
            return InvariantViolation(
                invariant=invariant,
                router=invariant.router,
                policy_name=route_map.name,
                witness=route,
                message=(
                    f"The route-map {route_map.name} permits the route "
                    f"[{route.describe()}] without adding the community "
                    f"{invariant.community}. However, every route accepted "
                    f"from neighbor {invariant.neighbor_ip} should carry it."
                ),
            )
    return None


def _oracle_egress_filter(config, route_map, invariant):
    for community in sorted(invariant.forbidden):
        constraint = RouteConstraint.with_community(community)
        universe = CandidateUniverse()
        universe.add_policy(config, route_map)
        universe.add_constraint(constraint)
        for route in oracle_routes(universe, constraint):
            try:
                outcome = route_map.evaluate(route, config)
            except PolicyEvaluationError:
                continue
            if outcome.action is Action.PERMIT:
                return InvariantViolation(
                    invariant=invariant,
                    router=invariant.router,
                    policy_name=route_map.name,
                    witness=route,
                    message=(
                        f"The route-map {route_map.name} permits routes that "
                        f"have the community {community}. However, they "
                        f"should be denied."
                    ),
                )
    return None


def _oracle_egress_prepend(config, route_map, invariant):
    expected = (invariant.asn,) * invariant.count
    universe = CandidateUniverse()
    universe.add_policy(config, route_map)
    for route in oracle_routes(universe):
        try:
            outcome = route_map.evaluate(route, config)
        except PolicyEvaluationError:
            continue
        if outcome.action is not Action.PERMIT:
            continue
        added = outcome.route.as_path.asns[
            : len(outcome.route.as_path.asns) - len(route.as_path.asns)
        ]
        if added != expected:
            found = len([asn for asn in added if asn == invariant.asn])
            return InvariantViolation(
                invariant=invariant,
                router=invariant.router,
                policy_name=route_map.name,
                witness=route,
                message=(
                    f"The route-map {route_map.name} exports the route "
                    f"[{route.describe()}] with AS {invariant.asn} prepended "
                    f"{found} time(s). However, it must be prepended "
                    f"{invariant.count} time(s)."
                ),
            )
    return None


_ORACLES = {
    IngressTagInvariant: _oracle_ingress_tag,
    EgressFilterInvariant: _oracle_egress_filter,
    EgressPrependInvariant: _oracle_egress_prepend,
}


def oracle_verify(config: RouterConfig, invariant) -> Optional[InvariantViolation]:
    route_map, name = _attached_policy(
        config, invariant.neighbor_ip, invariant.direction
    )
    if route_map is None:
        return _missing_policy_violation(invariant, name)
    return _ORACLES[type(invariant)](config, route_map, invariant)


# -- the comparisons -----------------------------------------------------------


def assert_same_grid(
    universe: CandidateUniverse, constraint: Optional[RouteConstraint]
) -> None:
    expected = list(oracle_routes(universe, constraint))
    assert list(universe.routes(constraint)) == expected
    collapsed = list(universe.routes(constraint, collapse_protocols=True))
    if universe.fingerprint()[2]:
        # Some policy or the constraint names a protocol: no collapse.
        assert collapsed == expected
    else:
        first = expected[0].protocol if expected else None
        assert collapsed == [r for r in expected if r.protocol is first]


def assert_same_grids(config: RouterConfig, invariant) -> None:
    route_map, _name = _attached_policy(
        config, invariant.neighbor_ip, invariant.direction
    )
    if route_map is None:
        return
    policy = CandidateUniverse.for_policy(config, route_map)
    assert_same_grid(policy, None)
    for community in sorted(getattr(invariant, "forbidden", ())):
        constraint = RouteConstraint.with_community(community)
        universe = CandidateUniverse.for_policy(config, route_map)
        universe.add_constraint(constraint)
        assert_same_grid(universe, constraint)


def assert_same_verdict(config: RouterConfig, invariant) -> Optional[InvariantViolation]:
    expected = oracle_verify(config, invariant)
    reset_caches()
    actual = verify_invariant(config, invariant)
    assert actual == expected
    if expected is not None:
        assert actual.witness == expected.witness
    return expected


def prepend_invariants(configs) -> List[EgressPrependInvariant]:
    """One prepend obligation per export session: reference maps do not
    prepend, so each fails with a grid witness."""
    invariants = []
    for name, config in sorted(configs.items()):
        if config.bgp is None:
            continue
        for neighbor in config.bgp.sorted_neighbors():
            if neighbor.export_policy is not None:
                invariants.append(
                    EgressPrependInvariant(
                        router=name,
                        neighbor_ip=neighbor.ip,
                        asn=config.bgp.asn,
                        count=2,
                    )
                )
    return invariants


# -- reference configs: all seven families at two sizes -----------------------

REFERENCE_CELLS = [
    (family, size, extra)
    for family in ("star", "chain", "ring", "mesh", "dumbbell")
    for size in (6, 12)
    for extra in ({},)
] + [
    (family, size, {"seed": 1, "roles": "c2i2h2"})
    for family in ("random", "waxman")
    for size in (8, 14)
]


@pytest.mark.parametrize(
    "family,size,extra",
    REFERENCE_CELLS,
    ids=[f"{f}-{s}" for f, s, _ in REFERENCE_CELLS],
)
def test_reference_configs_match_oracle(family, size, extra):
    topology = generate_network(family, size, **extra).topology
    configs = build_reference_configs(topology)
    invariants = no_transit_invariants(topology) + prepend_invariants(configs)
    violations = 0
    for invariant in invariants:
        config = configs[invariant.router]
        assert_same_grids(config, invariant)
        if assert_same_verdict(config, invariant) is not None:
            violations += 1
    # The reference holds every no-transit obligation and fails every
    # prepend obligation, so both verdict kinds are compared.
    assert violations == len(prepend_invariants(configs)) > 0


# -- every synthesis fault-catalog injection ----------------------------------


def _injections():
    for family, size, extra in CELLS:
        topology = generate_network(family, size, **extra).topology
        configs = build_reference_configs(topology)
        catalog = synthesis_fault_catalog(topology)
        for key, router in sorted(fault_designations(topology).items()):
            if key in catalog and router in configs:
                yield topology, configs, router, catalog[key]


def test_fault_catalog_injections_match_oracle():
    checked = witnessed = 0
    for topology, configs, router, fault in _injections():
        state = DraftState(configs[router], generate_cisco)
        state.inject(fault)
        try:
            faulted = state.current_config()
        except FaultTargetError:
            continue
        local = [
            invariant
            for invariant in no_transit_invariants(topology)
            if invariant.router == router
        ] + prepend_invariants({router: faulted})
        for invariant in local:
            assert_same_grids(faulted, invariant)
            violation = assert_same_verdict(faulted, invariant)
            checked += 1
            if violation is not None and not isinstance(
                invariant, EgressPrependInvariant
            ):
                witnessed += 1
    assert checked > 100
    # Faults such as egress_permits_tagged and missing_ingress_tag must
    # produce no-transit witnesses, not only missing-policy verdicts.
    assert witnessed > 10


# -- generated maps ------------------------------------------------------------

POOL = (
    Community(100, 1),
    Community(100, 2),
    Community(200, 1),
    Community(300, 5),
)
UNMENTIONED = Community(999, 9)
RANGES = (
    PrefixRange(Prefix.parse("10.0.0.0/8"), 8, 24),
    PrefixRange.exact(Prefix.parse("10.1.0.0/16")),
    PrefixRange(Prefix.parse("192.168.0.0/16"), 20, 28),
)
PROTOCOLS = (Protocol.BGP, Protocol.OSPF, Protocol.CONNECTED, Protocol.STATIC)
NEIGHBOR = Ipv4Address.parse("10.0.0.2")

communities = st.sampled_from(POOL)

community_entries = st.one_of(
    st.builds(
        CommunityListEntry,
        st.sampled_from(("permit", "deny")),
        st.lists(communities, min_size=1, max_size=3, unique=True).map(tuple),
    ),
    # Permit-only lists of one-tag lines take the prepared fast path;
    # a multi-tag permit line among them must keep it off.
    st.builds(
        CommunityListEntry,
        st.just("permit"),
        st.lists(communities, min_size=1, max_size=2, unique=True).map(tuple),
    ),
    st.builds(
        lambda action, regex: CommunityListEntry(action, regex=regex),
        st.sampled_from(("permit", "deny")),
        st.sampled_from((r"^100:", r":1$", r"^[23]00:")),
    ),
)

matches = st.one_of(
    st.builds(MatchProtocol, st.sampled_from(PROTOCOLS)),
    st.builds(MatchPrefixList, st.sampled_from(("PL1", "PL2", "GHOST_PL"))),
    st.builds(
        MatchCommunityList, st.sampled_from(("CL1", "CL2", "CL3", "GHOST_CL"))
    ),
    st.builds(MatchCommunityInline, communities),
    st.builds(
        MatchPrefixRanges,
        st.lists(st.sampled_from(RANGES), min_size=1, max_size=2).map(tuple),
    ),
)

sets = st.one_of(
    st.builds(
        SetCommunity,
        st.lists(communities, max_size=2, unique=True).map(tuple),
        st.booleans(),
    ),
    st.builds(SetAsPathPrepend, st.just(65000), st.integers(0, 3)),
)


@st.composite
def policies(draw):
    config = RouterConfig(hostname="r")
    for name in ("PL1", "PL2"):
        prefix_list = PrefixList(name)
        for _ in range(draw(st.integers(0, 3))):
            prefix_list.add(
                draw(st.sampled_from(("permit", "deny"))),
                draw(st.sampled_from(RANGES)),
            )
        config.add_prefix_list(prefix_list)
    for name in ("CL1", "CL2", "CL3"):
        community_list = CommunityList(name)
        for entry in draw(st.lists(community_entries, max_size=4)):
            community_list.add(entry)
        config.add_community_list(community_list)
    route_map = RouteMap("M")
    for index in range(draw(st.integers(1, 4))):
        clause = RouteMapClause(
            seq=10 * (index + 1),
            action=draw(st.sampled_from((Action.PERMIT, Action.DENY))),
        )
        clause.matches.extend(draw(st.lists(matches, max_size=3)))
        clause.sets.extend(draw(st.lists(sets, max_size=2)))
        route_map.add_clause(clause)
    config.add_route_map(route_map)
    bgp = config.ensure_bgp(65000)
    bgp.add_neighbor(
        BgpNeighbor(
            ip=NEIGHBOR, remote_as=65001, import_policy="M", export_policy="M"
        )
    )
    return config


invariants = st.one_of(
    st.builds(
        EgressFilterInvariant,
        st.just("r"),
        st.just(NEIGHBOR),
        st.frozensets(
            st.sampled_from(POOL + (UNMENTIONED,)), min_size=1, max_size=3
        ),
    ),
    st.builds(
        IngressTagInvariant,
        st.just("r"),
        st.just(NEIGHBOR),
        st.sampled_from(POOL + (UNMENTIONED,)),
    ),
    st.builds(
        EgressPrependInvariant,
        st.just("r"),
        st.just(NEIGHBOR),
        st.just(65000),
        st.integers(1, 2),
    ),
)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(config=policies(), invariant=invariants)
def test_generated_maps_match_oracle(config, invariant):
    reset_caches()
    assert_same_grids(config, invariant)
    assert_same_verdict(config, invariant)


@st.composite
def community_filters(draw):
    """Maps that match only defined community lists of pool tags: the
    region where the prepared one-tag fast path, the community-set axis
    filter and the protocol collapse all act at once."""
    config = RouterConfig(hostname="r")
    names = ("CL1", "CL2")
    for name in names:
        lines = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(("permit", "permit", "deny")),
                    st.lists(communities, min_size=1, max_size=2, unique=True),
                ),
                min_size=1,
                max_size=3,
            )
        )
        config.add_community_list(
            CommunityList(
                name, [CommunityListEntry(a, tuple(tags)) for a, tags in lines]
            )
        )
    route_map = RouteMap("M")
    for index in range(draw(st.integers(1, 3))):
        clause = RouteMapClause(
            seq=10 * (index + 1),
            action=draw(st.sampled_from((Action.PERMIT, Action.DENY))),
        )
        for name in draw(st.lists(st.sampled_from(names), max_size=2)):
            clause.matches.append(MatchCommunityList(name))
        route_map.add_clause(clause)
    config.add_route_map(route_map)
    config.ensure_bgp(65000).add_neighbor(
        BgpNeighbor(ip=NEIGHBOR, remote_as=65001, export_policy="M")
    )
    return config


@settings(max_examples=150, deadline=None)
@given(
    config=community_filters(),
    forbidden=st.frozensets(communities, min_size=1, max_size=2),
)
def test_generated_community_filters_match_oracle(config, forbidden):
    reset_caches()
    invariant = EgressFilterInvariant("r", NEIGHBOR, forbidden)
    assert_same_grids(config, invariant)
    assert_same_verdict(config, invariant)
