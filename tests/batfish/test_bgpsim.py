"""Tests for the BGP control-plane simulator."""


from repro.batfish import BgpSimulation
from repro.cisco import generate_cisco, parse_cisco
from repro.netmodel import Community, Prefix
from repro.netmodel.aspath import AsPath


def _parse_all(texts):
    return {
        name: parse_cisco(text, filename=name).config
        for name, text in texts.items()
    }


def _two_routers(extra_a="", extra_b=""):
    a = (
        "hostname A\n"
        "interface eth0\n ip address 1.0.0.1 255.255.255.0\n"
        "router bgp 1\n"
        " network 10.1.0.0 mask 255.255.0.0\n"
        " neighbor 1.0.0.2 remote-as 2\n" + extra_a
    )
    b = (
        "hostname B\n"
        "interface eth0\n ip address 1.0.0.2 255.255.255.0\n"
        "router bgp 2\n"
        " network 10.2.0.0 mask 255.255.0.0\n"
        " neighbor 1.0.0.1 remote-as 1\n" + extra_b
    )
    return _parse_all({"A": a, "B": b})


class TestSessions:
    def test_mutual_declaration_establishes(self):
        sim = BgpSimulation(_two_routers())
        assert len(sim.sessions) == 1

    def test_wrong_remote_as_blocks_session(self):
        configs = _two_routers()
        configs["A"].bgp.neighbors["1.0.0.2"].remote_as = 99
        sim = BgpSimulation(configs)
        assert sim.sessions == []

    def test_one_sided_declaration_blocks_session(self):
        configs = _two_routers()
        configs["B"].bgp.remove_neighbor("1.0.0.1")
        sim = BgpSimulation(configs)
        assert sim.sessions == []

    def test_unowned_neighbor_address_ignored(self):
        configs = _two_routers()
        configs["A"].bgp.neighbors["1.0.0.2"].remote_as = 2
        # Add a neighbor address no router owns.
        from repro.netmodel import BgpNeighbor, Ipv4Address

        configs["A"].bgp.add_neighbor(
            BgpNeighbor(ip=Ipv4Address.parse("7.7.7.7"), remote_as=7)
        )
        sim = BgpSimulation(configs)
        assert len(sim.sessions) == 1


class TestPropagation:
    def test_routes_exchanged(self):
        sim = BgpSimulation(_two_routers())
        sim.run()
        assert sim.has_route("A", Prefix.parse("10.2.0.0/16"))
        assert sim.has_route("B", Prefix.parse("10.1.0.0/16"))

    def test_as_path_prepended(self):
        sim = BgpSimulation(_two_routers())
        entry = sim.rib("A")[Prefix.parse("10.2.0.0/16")]
        assert entry.route.as_path.asns == (2,)

    def test_provenance_tracked(self):
        sim = BgpSimulation(_two_routers())
        assert sim.provenance("A", Prefix.parse("10.2.0.0/16")) == "B"
        assert sim.provenance("A", Prefix.parse("10.1.0.0/16")) == "A"

    def test_local_origination_beats_learned(self):
        configs = _two_routers(
            extra_b=" network 10.1.0.0 mask 255.255.0.0\n"
        )
        sim = BgpSimulation(configs)
        assert sim.provenance("B", Prefix.parse("10.1.0.0/16")) == "B"

    def test_export_policy_applied(self):
        configs = _two_routers(
            extra_a=(
                " neighbor 1.0.0.2 route-map BLOCK out\n"
            )
        )
        # BLOCK denies everything (route-map with no permit clause).
        text = generate_cisco(configs["A"]) + "route-map BLOCK deny 10\n"
        configs["A"] = parse_cisco(text).config
        sim = BgpSimulation(configs)
        assert not sim.has_route("B", Prefix.parse("10.1.0.0/16"))

    def test_import_policy_transforms(self):
        configs = _two_routers(
            extra_b=" neighbor 1.0.0.1 route-map TAG in\n"
        )
        text = (
            generate_cisco(configs["B"])
            + "route-map TAG permit 10\n set community 100:1 additive\n"
        )
        configs["B"] = parse_cisco(text).config
        sim = BgpSimulation(configs)
        entry = sim.rib("B")[Prefix.parse("10.1.0.0/16")]
        assert Community(100, 1) in entry.route.communities

    def test_as_loop_prevention(self):
        """A route whose path contains the receiver's AS is rejected."""
        configs = _two_routers()
        # Three in a row: A - B, B - C, C - A would be needed for a real
        # loop; simulate by checking B never re-learns its own route.
        sim = BgpSimulation(configs)
        entry = sim.rib("B").get(Prefix.parse("10.2.0.0/16"))
        assert entry is not None
        assert entry.learned_from is None

    def test_convergence_is_idempotent(self):
        sim = BgpSimulation(_two_routers())
        first = sim.run()
        ribs = {name: sim.rib(name) for name in ("A", "B")}
        second = sim.run()
        assert first == second
        assert {name: sim.rib(name) for name in ("A", "B")} == ribs


class TestStarNoTransit:
    def test_reference_star_blocks_transit(self, star7_configs, star7):
        texts = {
            name: generate_cisco(cfg) for name, cfg in star7_configs.items()
        }
        configs = _parse_all(texts)
        sim = BgpSimulation(configs)
        sim.run()
        # R2's prefix must not reach R3 (tagged + filtered at R1 egress).
        assert not sim.has_route("R3", Prefix.parse("1.0.0.0/24"))
        # The customer prefix reaches every spoke.
        for name in ("R2", "R3", "R7"):
            assert sim.has_route(name, Prefix.parse("100.0.0.0/24"))
        # The hub hears every spoke prefix.
        assert sim.has_route("R1", Prefix.parse("1.0.0.0/24"))
        assert sim.has_route("R1", Prefix.parse("6.0.0.0/24"))

    def test_unfiltered_star_leaks_transit(self, star7_configs):
        texts = {
            name: generate_cisco(cfg) for name, cfg in star7_configs.items()
        }
        configs = _parse_all(texts)
        hub = configs["R1"]
        for neighbor in hub.bgp.neighbors.values():
            neighbor.export_policy = None
        sim = BgpSimulation(configs)
        assert sim.has_route("R3", Prefix.parse("1.0.0.0/24"))


class TestBestPath:
    def test_local_pref_wins(self):
        """Higher local-pref beats shorter AS path."""
        from repro.batfish.bgpsim import RibEntry
        from repro.netmodel import Route

        low = RibEntry(
            route=Route(prefix=Prefix.parse("9.0.0.0/8"), local_pref=100),
            learned_from="x",
            origin_router="x",
        )
        high = RibEntry(
            route=Route(
                prefix=Prefix.parse("9.0.0.0/8"),
                local_pref=200,
                as_path=AsPath((2, 1)),
            ),
            learned_from="y",
            origin_router="y",
        )
        assert BgpSimulation._better(high, low)
        assert not BgpSimulation._better(low, high)

    def test_shorter_as_path_wins(self):
        from repro.batfish.bgpsim import RibEntry
        from repro.netmodel import Route

        short = RibEntry(
            route=Route(prefix=Prefix.parse("9.0.0.0/8"), as_path=AsPath((1,))),
            learned_from="x",
            origin_router="x",
        )
        long = RibEntry(
            route=Route(prefix=Prefix.parse("9.0.0.0/8"), as_path=AsPath((2, 1))),
            learned_from="y",
            origin_router="y",
        )
        assert BgpSimulation._better(short, long)

    def test_lower_med_wins(self):
        from repro.batfish.bgpsim import RibEntry
        from repro.netmodel import Route

        cheap = RibEntry(
            route=Route(prefix=Prefix.parse("9.0.0.0/8"), med=10),
            learned_from="x",
            origin_router="x",
        )
        costly = RibEntry(
            route=Route(prefix=Prefix.parse("9.0.0.0/8"), med=20),
            learned_from="y",
            origin_router="y",
        )
        assert BgpSimulation._better(cheap, costly)
