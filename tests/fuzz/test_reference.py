"""The reference BGP simulator on hand-computed networks.

Each case is small enough to work out on paper from the decision
process, so the reference is checked against the spec itself — not
against the production simulator it is the oracle for.  Router ``R<i>``
runs AS ``i``; the link between ``R<a>`` and ``R<b>`` (``a < b``) is
``10.<a>.<b>.0/24`` with ``R<i>`` at host address ``i``.
"""

import pytest

from repro.batfish.bgpsim import SimulationState
from repro.cisco import parse_cisco
from repro.fuzz.oracle import canonical_ribs
from repro.fuzz.reference import _plant_bug, simulate
from repro.netmodel import Prefix

PREFIX = Prefix.parse("10.99.0.0/16")


def _network(links, originators, extra=None):
    """Configs for the routers on ``links``; every router in
    ``originators`` announces :data:`PREFIX`."""
    extra = extra or {}
    routers = sorted({router for link in links for router in link})
    configs = {}
    for i in routers:
        lines = [f"hostname R{i}"]
        neighbors = []
        for eth, (a, b) in enumerate(link for link in links if i in link):
            low, high = sorted((a, b))
            other = b if a == i else a
            lines += [
                f"interface eth{eth}",
                f" ip address 10.{low}.{high}.{i} 255.255.255.0",
            ]
            neighbors.append(
                f" neighbor 10.{low}.{high}.{other} remote-as {other}"
            )
        lines.append(f"router bgp {i}")
        if i in originators:
            lines.append(" network 10.99.0.0 mask 255.255.0.0")
        lines += neighbors
        lines += extra.get(i, ())
        configs[f"R{i}"] = parse_cisco(
            "\n".join(lines) + "\n", filename=f"R{i}"
        ).config
    return configs


def _held(ribs, router):
    """``(as path, learned_from, origin, router path, next hop)`` of the
    route ``router`` holds for :data:`PREFIX`, or ``None``."""
    entry = ribs[router].get(PREFIX)
    if entry is None:
        return None
    return (
        entry.route.as_path.asns,
        entry.learned_from,
        entry.origin_router,
        entry.path,
        str(entry.route.next_hop),
    )


class TestHandComputed:
    def test_three_router_line(self):
        """R1 - R2 - R3: each hop prepends its sender's AS and rewrites
        the next hop to the sender's address on the link."""
        ribs = simulate(_network([(1, 2), (2, 3)], originators={1}))
        assert _held(ribs, "R1") == ((), None, "R1", (), "None")
        assert _held(ribs, "R2") == ((1,), "R1", "R1", ("R1",), "10.1.2.1")
        assert _held(ribs, "R3") == (
            (2, 1), "R2", "R1", ("R1", "R2"), "10.2.3.2",
        )

    def test_equal_length_tie_goes_to_the_lower_neighbour(self):
        """The square R1-R2-R4-R3-R1: R4 hears two equal-length paths,
        [2 1] from R2 and [3 1] from R3.  Local-pref, length and MED
        tie, so the total tie-break picks the lower neighbour name."""
        links = [(1, 2), (1, 3), (2, 4), (3, 4)]
        ribs = simulate(_network(links, originators={1}))
        assert _held(ribs, "R4") == (
            (2, 1), "R2", "R1", ("R1", "R2"), "10.2.4.2",
        )

    def test_planted_tiebreak_bug_follows_arrival_order(self):
        """With ``legacy-tiebreak`` planted the same tie goes to the
        later arrival (R3's session is listed after R2's)."""
        links = [(1, 2), (1, 3), (2, 4), (3, 4)]
        _plant_bug("legacy-tiebreak", True)
        try:
            ribs = simulate(_network(links, originators={1}))
        finally:
            _plant_bug("legacy-tiebreak", False)
        assert _held(ribs, "R4")[1] == "R3"

    def test_neighbour_switch_withdraws_the_old_route(self):
        """R3 - R5 - {R7 - R1, R6 - R2}.  While only R1 originates, R3
        holds [5 7 1].  Once R2 originates too, R5 hears [7 1] and
        [6 2] — a length tie it breaks toward R6 — so it stops
        advertising [5 7 1].  R3 must follow to [5 6 2] even though,
        had both reached it, [5 7 1] would win its own tie-break (R1
        before R2): a neighbour's new best implicitly withdraws its old
        one."""
        links = [(3, 5), (5, 6), (5, 7), (1, 7), (2, 6)]
        before = simulate(_network(links, originators={1}))
        assert _held(before, "R3")[:4] == (
            (5, 7, 1), "R5", "R1", ("R1", "R7", "R5"),
        )
        after = simulate(_network(links, originators={1, 2}))
        assert _held(after, "R5")[:3] == ((6, 2), "R6", "R2")
        assert _held(after, "R3")[:4] == (
            (5, 6, 2), "R5", "R2", ("R2", "R6", "R5"),
        )

    def test_incremental_resimulation_applies_the_withdrawal(self):
        """The production worklist reaches the same RIBs (this is the
        shape of the corpus repro fuzz-random-7-c9a68a08b812)."""
        links = [(3, 5), (5, 6), (5, 7), (1, 7), (2, 6)]
        state = SimulationState(_network(links, originators={1}))
        after = _network(links, originators={1, 2})
        state.resimulate(after, changed_routers={"R2"})
        simulation = state.simulation
        production = {name: simulation.rib(name) for name in after}
        assert canonical_ribs(production) == canonical_ribs(simulate(after))

    def test_export_deny_withdraws_downstream(self):
        """R2's export map to R3 denies everything: R3 learns nothing,
        while R2 still holds R1's route."""
        links = [(1, 2), (2, 3)]
        deny = (
            " neighbor 10.2.3.3 route-map BLOCK out",
            "route-map BLOCK deny 10",
        )
        ribs = simulate(_network(links, originators={1}, extra={2: deny}))
        assert _held(ribs, "R2")[:3] == ((1,), "R1", "R1")
        assert _held(ribs, "R3") is None


def test_unknown_planted_bug_is_rejected():
    with pytest.raises(ValueError, match="unknown planted bug"):
        _plant_bug("no-such-bug")
