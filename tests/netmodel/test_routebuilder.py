"""RouteBuilder and the interned route datapath."""

import copy
import pickle

import pytest

from repro.netmodel import (
    Community,
    Ipv4Address,
    Prefix,
    Protocol,
    Route,
    RouteBuilder,
    intern_communities,
    route_totals,
)
from repro.netmodel import Origin, RouterConfig, Vendor
from repro.netmodel.aspath import AsPath
from repro.netmodel.routing_policy import (
    Action,
    MatchProtocol,
    RouteMap,
    RouteMapClause,
    SetAsPathPrepend,
    SetCommunity,
    SetLocalPref,
    SetMed,
    SetNextHop,
)


def _route(**kwargs):
    return Route(prefix=Prefix.parse("1.2.3.0/24"), **kwargs)


class TestBuilderTransactions:
    def test_accumulates_and_freezes_once(self):
        builder = RouteBuilder(_route())
        builder.set_med(50)
        builder.set_local_pref(200)
        builder.prepend_as(7, 2)
        builder.add_community(Community(1, 1))
        builder.set_next_hop(Ipv4Address.parse("9.9.9.9"))
        frozen = builder.freeze()
        assert frozen.med == 50
        assert frozen.local_pref == 200
        assert frozen.as_path.asns == (7, 7)
        assert frozen.communities == {Community(1, 1)}
        assert frozen.next_hop == Ipv4Address.parse("9.9.9.9")

    def test_untouched_builder_freezes_to_the_base_object(self):
        route = _route()
        before = route_totals()["routes_reused"]
        assert RouteBuilder(route).freeze() is route
        assert route_totals()["routes_reused"] == before + 1

    def test_prepend_order_is_most_recent_first(self):
        builder = RouteBuilder(_route())
        builder.prepend_as(100)
        builder.prepend_as(200)
        assert builder.freeze().as_path.asns == (200, 100)

    def test_builder_duck_types_the_route_surface(self):
        builder = RouteBuilder(_route(communities=frozenset({Community(1, 1)})))
        assert builder.prefix == Prefix.parse("1.2.3.0/24")
        assert builder.communities == {Community(1, 1)}
        builder.add_community(Community(2, 2))
        assert builder.communities == {Community(1, 1), Community(2, 2)}
        builder.prepend_as(5)
        assert builder.as_path.asns == (5,)
        assert builder.path_contains(5)
        assert not builder.path_contains(6)

    def test_set_actions_apply_to_one_builder(self):
        builder = RouteBuilder(_route())
        for action in (
            SetMed(10),
            SetLocalPref(300),
            SetNextHop(Ipv4Address.parse("8.8.8.8")),
            SetAsPathPrepend(65000, 2),
            SetCommunity((Community(3, 3),), additive=True),
        ):
            action.apply_to(builder)
        frozen = builder.freeze()
        assert frozen.med == 10
        assert frozen.local_pref == 300
        assert frozen.as_path.asns == (65000, 65000)
        assert frozen.communities == {Community(3, 3)}

    def test_non_additive_set_community_replaces(self):
        builder = RouteBuilder(_route(communities=frozenset({Community(1, 1)})))
        SetCommunity((Community(2, 2), Community(3, 3))).apply_to(builder)
        assert builder.freeze().communities == {Community(2, 2), Community(3, 3)}

    def test_base_route_never_mutates(self):
        route = _route()
        builder = RouteBuilder(route)
        builder.set_med(99)
        builder.add_community(Community(9, 9))
        builder.freeze()
        assert route.med == 0
        assert route.communities == frozenset()

    def test_dirty_tracks_mutation(self):
        builder = RouteBuilder(_route())
        assert not builder.dirty
        builder.set_med(1)
        assert builder.dirty

    def test_set_origin(self):
        builder = RouteBuilder(_route())
        builder.set_origin(Origin.INCOMPLETE)
        assert builder.freeze().origin is Origin.INCOMPLETE


def _tagging_map():
    route_map = RouteMap("TAG")
    deny = RouteMapClause(seq=10, action=Action.DENY)
    deny.matches.append(MatchProtocol(Protocol.OSPF))
    route_map.add_clause(deny)
    permit = RouteMapClause(seq=20, action=Action.PERMIT)
    permit.sets.append(SetCommunity((Community(7, 7),), additive=True))
    route_map.add_clause(permit)
    return route_map


class TestTransactionalApply:
    """RouteMap.apply / PreparedRouteMap.apply: the builder-level form
    of evaluate — identical dispositions, mutations only on permit."""

    def test_apply_matches_evaluate(self):
        config = RouterConfig(hostname="r", vendor=Vendor.CISCO)
        route_map = _tagging_map()
        for route in (_route(), _route(protocol=Protocol.OSPF)):
            expected = route_map.evaluate(route, config)
            builder = RouteBuilder(route)
            action = route_map.apply(builder, config)
            assert action is expected.action
            assert builder.freeze() == expected.route
            prepared_builder = RouteBuilder(route)
            prepared_action = route_map.prepare(config).apply(prepared_builder)
            assert prepared_action is expected.action
            assert prepared_builder.freeze() == expected.route

    def test_deny_leaves_builder_clean(self):
        config = RouterConfig(hostname="r", vendor=Vendor.CISCO)
        builder = RouteBuilder(_route(protocol=Protocol.OSPF))
        assert _tagging_map().apply(builder, config) is Action.DENY
        assert not builder.dirty

    def test_implicit_deny_on_empty_map(self):
        config = RouterConfig(hostname="r", vendor=Vendor.CISCO)
        builder = RouteBuilder(_route())
        assert RouteMap("EMPTY").apply(builder, config) is Action.DENY
        assert RouteMap("EMPTY").prepare(config).apply(builder) is Action.DENY
        assert not builder.dirty


class TestRouteSerialization:
    def test_route_round_trips_through_pickle(self):
        route = (
            RouteBuilder(_route(communities=frozenset({Community(1, 1)})))
            .prepend_as(9)
            .set_med(4)
            .freeze()
        )
        clone = pickle.loads(pickle.dumps(route))
        assert clone == route
        assert hash(clone) == hash(route)
        # Unpickling re-interns onto this process's flyweights.
        assert clone.as_path is route.as_path
        assert clone.communities is route.communities

    def test_copy_returns_the_same_immutable_value(self):
        route = _route(med=3)
        assert copy.copy(route) is route
        assert copy.deepcopy({"r": route})["r"] is route


class TestInterningInvariants:
    def test_same_value_routes_share_as_path_instances(self):
        one = RouteBuilder(_route()).prepend_as(1).prepend_as(2).freeze()
        two = RouteBuilder(_route()).prepend_as(1).prepend_as(2).freeze()
        assert one.as_path is two.as_path

    def test_same_value_routes_share_community_instances(self):
        members = frozenset({Community(1, 1), Community(2, 2)})
        one = _route(communities=frozenset(members))
        two = _route(communities=set(members))
        assert one.communities is two.communities

    def test_intern_communities_is_value_keyed(self):
        a = intern_communities(frozenset({Community(5, 5)}))
        b = intern_communities({Community(5, 5)})
        assert a is b
        assert intern_communities(()) is intern_communities(frozenset())

    def test_as_path_of_interns(self):
        assert AsPath.of((1, 2)) is AsPath.of((1, 2))
        assert AsPath.of((1, 2)) == AsPath((1, 2))

    def test_empty_as_path_is_shared(self):
        assert _route().as_path is _route().as_path

    def test_route_is_immutable(self):
        route = _route()
        with pytest.raises(AttributeError):
            route.med = 5

    def test_route_hash_and_equality_are_structural(self):
        assert _route() == _route()
        assert hash(_route()) == hash(_route())
        assert _route(med=1) != _route()
