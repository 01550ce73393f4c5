"""A reference BGP simulator written from the decision-process spec.

This is the oracle the differential fuzzer holds the production
simulator (:mod:`repro.batfish.bgpsim`) to — full convergence,
incremental re-simulation and memoized verification alike.  It is
deliberately naive, so that it is obviously right rather than fast:

* **Synchronous rounds.**  Each round recomputes every router's RIB
  from scratch: its own ``network`` originations plus, from every
  session neighbour, that neighbour's export of its *previous-round*
  best route.  A route a neighbour stopped advertising simply stops
  arriving, so implicit withdrawal needs no special case.  Rounds
  repeat until the RIBs stop changing.
* **An explicit attribute cascade** (:func:`prefers`): local
  origination, then higher local-pref, shorter AS path, lower MED, and
  finally the total tie-break ``(learned_from, origin_router, AS path,
  router path)``.
* **One export pipeline** (:func:`_export`): no reflection back to the
  route's source, the sender's export map, the sender's AS prepend and
  next-hop rewrite, the AS-loop check, then the receiver's import map.

It shares only the config IR, session derivation and
:meth:`~repro.netmodel.routing_policy.RouteMap.evaluate` with
production code — no route builders, caches, interning, worklists or
loser screens.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Set, Tuple

from ..batfish.bgpsim import BgpSession, BgpSimulation
from ..netmodel.aspath import AsPath
from ..netmodel.device import RouterConfig
from ..netmodel.ip import Prefix
from ..netmodel.route import Protocol, Route
from ..netmodel.routing_policy import PolicyEvaluationError

__all__ = ["ReferenceDidNotConverge", "RefEntry", "prefers", "simulate"]

MAX_ROUNDS = 64


class ReferenceDidNotConverge(RuntimeError):
    """The synchronous rounds kept changing for ``MAX_ROUNDS`` rounds."""


class RefEntry(NamedTuple):
    """A route held in a router's RIB, with its provenance."""

    route: Route
    learned_from: Optional[str]  # None for a locally originated route
    origin_router: str
    path: Tuple[str, ...]  # routers traversed, origin first


def prefers(candidate, incumbent) -> bool:
    """Whether the decision process picks ``candidate`` over
    ``incumbent`` (any two objects with ``route``, ``learned_from``,
    ``origin_router`` and ``path``)."""
    local = candidate.learned_from is None
    if local != (incumbent.learned_from is None):
        return local
    a, b = candidate.route, incumbent.route
    if a.local_pref != b.local_pref:
        return a.local_pref > b.local_pref
    if len(a.as_path.asns) != len(b.as_path.asns):
        return len(a.as_path.asns) < len(b.as_path.asns)
    if a.med != b.med:
        return a.med < b.med
    if "legacy-tiebreak" in _PLANTED_BUGS:
        return True  # the later arrival wins: order-dependent
    return _tiebreak(candidate) < _tiebreak(incumbent)


def _tiebreak(entry) -> tuple:
    return (
        entry.learned_from or "",
        entry.origin_router,
        entry.route.as_path.asns,
        entry.path,
    )


def simulate(
    configs: Dict[str, RouterConfig],
) -> Dict[str, Dict[Prefix, RefEntry]]:
    """Every router's converged RIB, by hostname then prefix."""
    pairs = BgpSimulation(configs).sessions
    sessions = [s for pair in pairs for s in (pair, pair.reversed())]
    ribs: Dict[str, Dict[Prefix, RefEntry]] = {name: {} for name in configs}
    for _ in range(MAX_ROUNDS):
        offers = {name: _originations(name, configs[name]) for name in configs}
        for session in sessions:
            for entry in ribs[session.local_router].values():
                candidate = _export(entry, session, configs)
                if candidate is not None:
                    offers[session.remote_router].append(candidate)
        new = {name: _best(candidates) for name, candidates in offers.items()}
        if new == ribs:
            return new
        ribs = new
    raise ReferenceDidNotConverge(f"no fixpoint after {MAX_ROUNDS} rounds")


def _originations(name: str, config: RouterConfig) -> list:
    if config.bgp is None:
        return []
    return [
        RefEntry(Route(prefix=prefix, protocol=Protocol.BGP), None, name, ())
        for prefix in config.bgp.networks
    ]


def _best(candidates: list) -> Dict[Prefix, RefEntry]:
    """The preferred candidate per prefix."""
    best: Dict[Prefix, RefEntry] = {}
    for candidate in candidates:
        prefix = candidate.route.prefix
        if prefix not in best or prefers(candidate, best[prefix]):
            best[prefix] = candidate
    return best


def _export(
    entry: RefEntry, session: BgpSession, configs: Dict[str, RouterConfig]
) -> Optional[RefEntry]:
    """The receiver's candidate for one sender entry, or ``None``."""
    sender, receiver = session.local_router, session.remote_router
    if entry.learned_from == receiver:
        return None  # never reflect a route back to its source
    sender_config, receiver_config = configs[sender], configs[receiver]
    route = _apply(sender_config, session.remote_ip, "export", entry.route)
    if route is None:
        return None
    route = Route(
        prefix=route.prefix,
        as_path=AsPath((sender_config.bgp.asn,) + route.as_path.asns),
        communities=route.communities,
        med=route.med,
        local_pref=route.local_pref,
        origin=route.origin,
        protocol=route.protocol,
        next_hop=session.local_ip,
    )
    if receiver_config.bgp.asn in route.as_path.asns:
        return None  # AS-loop prevention
    route = _apply(receiver_config, session.local_ip, "import", route)
    if route is None:
        return None
    return RefEntry(route, sender, entry.origin_router, entry.path + (sender,))


def _apply(config: RouterConfig, neighbor_ip, direction: str, route: Route):
    """The route after the neighbour's policy in ``direction``, or
    ``None`` when it denies.  No policy (or a name that resolves to no
    route-map) passes the route through; a policy naming an undefined
    list denies."""
    neighbor = config.bgp.get_neighbor(neighbor_ip)
    name = None
    if neighbor is not None:
        name = getattr(neighbor, f"{direction}_policy")
    route_map = config.get_route_map(name) if name is not None else None
    if route_map is None:
        return route
    try:
        result = route_map.evaluate(route, config)
    except PolicyEvaluationError:
        return None
    return result.route if result.permitted else None


# -- planted regressions (fuzz-harness self-test) ------------------------------
#
# The differential fuzzer is only trustworthy if it can find bugs we
# already understand.  These hidden flags plant a known historical bug
# in the reference behind a switch the fuzzer's self-tests (and the
# hidden ``repro fuzz --plant`` CLI option) can flip; nothing else ever
# sets them.

_KNOWN_PLANTED_BUGS = frozenset({"legacy-tiebreak"})

_PLANTED_BUGS: Set[str] = set()


def _plant_bug(name: str, enabled: bool = True) -> None:
    """Enable/disable a planted known bug.  ``legacy-tiebreak`` drops
    the total tie-break from :func:`prefers`, so a full tie on the
    decision attributes goes to whichever candidate arrived last — the
    winner depends on arrival order."""
    if name not in _KNOWN_PLANTED_BUGS:
        known = ", ".join(sorted(_KNOWN_PLANTED_BUGS))
        raise ValueError(f"unknown planted bug {name!r} (known: {known})")
    if enabled:
        _PLANTED_BUGS.add(name)
    else:
        _PLANTED_BUGS.discard(name)


def _planted_bugs() -> "frozenset[str]":
    return frozenset(_PLANTED_BUGS)
