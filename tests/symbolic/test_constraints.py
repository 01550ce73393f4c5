"""Tests for route constraints (the question input space)."""

from repro.netmodel import Community, Prefix, PrefixRange, Protocol, Route
from repro.symbolic import RouteConstraint


def _route(**kwargs):
    return Route(prefix=Prefix.parse("1.2.3.0/24"), **kwargs)


class TestRouteConstraint:
    def test_any_route_admits_everything(self):
        assert RouteConstraint.any_route().admits(_route())

    def test_prefix_ranges_disjunctive(self):
        constraint = RouteConstraint(
            prefix_ranges=(
                PrefixRange.exact(Prefix.parse("1.2.3.0/24")),
                PrefixRange.exact(Prefix.parse("9.9.9.0/24")),
            )
        )
        assert constraint.admits(_route())
        assert constraint.admits(Route(prefix=Prefix.parse("9.9.9.0/24")))
        assert not constraint.admits(Route(prefix=Prefix.parse("8.8.8.0/24")))

    def test_with_community(self):
        constraint = RouteConstraint.with_community(Community(100, 1))
        assert constraint.admits(
            _route(communities=frozenset({Community(100, 1)}))
        )
        assert not constraint.admits(_route())

    def test_required_communities_conjunctive(self):
        constraint = RouteConstraint(
            required_communities=frozenset({Community(1, 1), Community(2, 2)})
        )
        assert not constraint.admits(
            _route(communities=frozenset({Community(1, 1)}))
        )
        assert constraint.admits(
            _route(communities=frozenset({Community(1, 1), Community(2, 2)}))
        )

    def test_without_community(self):
        constraint = RouteConstraint.without_community(Community(100, 1))
        assert constraint.admits(_route())
        assert not constraint.admits(
            _route(communities=frozenset({Community(100, 1)}))
        )

    def test_protocol(self):
        constraint = RouteConstraint(protocol=Protocol.OSPF)
        assert constraint.admits(_route(protocol=Protocol.OSPF))
        assert not constraint.admits(_route())

    def test_conjunction_across_fields(self):
        constraint = RouteConstraint(
            prefix_ranges=(PrefixRange.exact(Prefix.parse("1.2.3.0/24")),),
            required_communities=frozenset({Community(1, 1)}),
            protocol=Protocol.BGP,
        )
        good = _route(communities=frozenset({Community(1, 1)}))
        assert constraint.admits(good)
        assert not constraint.admits(
            _route(
                communities=frozenset({Community(1, 1)}),
                protocol=Protocol.OSPF,
            )
        )

    def test_describe_any(self):
        assert RouteConstraint.any_route().describe() == "any route"

    def test_describe_mentions_fields(self):
        constraint = RouteConstraint(
            required_communities=frozenset({Community(100, 1)}),
            protocol=Protocol.BGP,
        )
        text = constraint.describe()
        assert "100:1" in text
        assert "bgp" in text
