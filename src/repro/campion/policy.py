"""Policy-behaviour difference detection (§3.1, error class 4).

For each BGP neighbor's import/export attachment point, the policies on
the two sides are compared with the symbolic engine; the first witness
route is reported with its example prefix, matching Campion's output
style ("for the prefix 1.2.3.0/25 ... ACCEPT ... but ... REJECT").

Attribute-transform diffing rides the interned route datapath: candidate
routes and policy outputs carry interned AS-path/community instances,
so the common no-difference case in ``repro.symbolic.diff`` resolves on
pointer checks rather than set comparisons.
"""

from __future__ import annotations

from typing import List

from ..netmodel.device import RouterConfig
from ..netmodel.route import Protocol
from ..netmodel.routing_policy import MatchProtocol, RouteMap
from ..symbolic import (
    BehaviorDifference,
    DifferenceKind,
    RouteConstraint,
    compare_policies,
)
from .findings import PolicyBehaviorFinding

__all__ = ["find_policy_differences", "find_redistribution_differences"]

# The space over which neighbor import/export policies are compared:
# Cisco neighbor route-maps only ever see BGP routes (redistributed
# routes enter the BGP table through a separate pipeline, compared by
# :func:`find_redistribution_differences`).
_BGP_SPACE = RouteConstraint(protocol=Protocol.BGP)


def find_policy_differences(
    original: RouterConfig,
    translated: RouterConfig,
    per_policy_limit: int = 3,
) -> List[PolicyBehaviorFinding]:
    """Per-neighbor policy comparisons plus the redistribution pipeline."""
    findings: List[PolicyBehaviorFinding] = []
    if original.bgp is None or translated.bgp is None:
        return findings
    shared = sorted(set(original.bgp.neighbors) & set(translated.bgp.neighbors))
    for ip in shared:
        left = original.bgp.neighbors[ip]
        right = translated.bgp.neighbors[ip]
        for direction in ("import", "export"):
            left_name = getattr(left, f"{direction}_policy")
            right_name = getattr(right, f"{direction}_policy")
            if left_name is None or right_name is None:
                continue  # attachment mismatches are structural findings
            left_map = original.get_route_map(left_name)
            right_map = translated.get_route_map(right_name)
            if left_map is None or right_map is None:
                continue  # dangling references are structural findings
            findings.extend(
                _compare_attachment(
                    original,
                    left_map,
                    translated,
                    right_map,
                    ip,
                    direction,
                    per_policy_limit,
                )
            )
    findings.extend(
        find_redistribution_differences(original, translated, per_policy_limit)
    )
    return findings


def find_redistribution_differences(
    original: RouterConfig,
    translated: RouterConfig,
    per_policy_limit: int = 3,
) -> List[PolicyBehaviorFinding]:
    """Compare what each side redistributes into BGP (Table 2, row 8).

    On the Cisco side, routes from protocol P reach BGP iff a
    ``redistribute P [route-map M]`` statement admits them; on the Junos
    side, iff a neighbor's export policy admits a route whose protocol
    is P.  Comparing those two spaces per non-BGP protocol reproduces
    Campion "detect[ing] that the Juniper configuration was
    redistributing some routes that the Cisco configuration did not".
    """
    findings: List[PolicyBehaviorFinding] = []
    if original.bgp is None or translated.bgp is None:
        return findings
    protocols = {Protocol.OSPF, Protocol.CONNECTED, Protocol.STATIC}
    protocols.update(
        item.protocol for item in original.bgp.redistributions
    )
    for route_map in translated.route_maps.values():
        for clause in route_map.clauses:
            for condition in clause.matches:
                if isinstance(condition, MatchProtocol):
                    protocols.add(condition.protocol)
    protocols.discard(Protocol.BGP)
    shared = sorted(set(original.bgp.neighbors) & set(translated.bgp.neighbors))
    for ip in shared:
        right = translated.bgp.neighbors[ip]
        if right.export_policy is None:
            continue
        right_map = translated.get_route_map(right.export_policy)
        if right_map is None:
            continue
        for protocol in sorted(protocols, key=lambda item: item.value):
            left_map = _redistribution_policy(original, protocol)
            differences = compare_policies(
                original,
                left_map,
                translated,
                right_map,
                constraint=RouteConstraint(protocol=protocol),
                limit=per_policy_limit,
            )
            for difference in _dedupe_by_prefix(differences):
                findings.append(
                    PolicyBehaviorFinding(
                        policy_name=right_map.name,
                        direction=f"redistribution ({protocol.value})",
                        neighbor=ip,
                        example_prefix=difference.route.prefix,
                        original_action=difference.original_action,
                        translated_action=difference.translated_action,
                        transform_detail=(
                            difference.detail
                            if difference.kind
                            is DifferenceKind.ATTRIBUTE_TRANSFORM
                            else ""
                        ),
                    )
                )
    return findings


def _redistribution_policy(original: RouterConfig, protocol: Protocol) -> RouteMap:
    """The effective Cisco-side redistribution filter for a protocol."""
    assert original.bgp is not None
    for redistribution in original.bgp.redistributions:
        if redistribution.protocol is not protocol:
            continue
        if redistribution.route_map is not None:
            found = original.get_route_map(redistribution.route_map)
            if found is not None:
                return found
        from ..netmodel.routing_policy import permit_all

        return permit_all(f"__redistribute_{protocol.value}__")
    # Not redistributed: the empty route map denies everything.
    return RouteMap(f"__no_redistribution_{protocol.value}__")


def _compare_attachment(
    original: RouterConfig,
    original_map: RouteMap,
    translated: RouterConfig,
    translated_map: RouteMap,
    neighbor_ip: str,
    direction: str,
    limit: int,
) -> List[PolicyBehaviorFinding]:
    differences = compare_policies(
        original,
        original_map,
        translated,
        translated_map,
        constraint=_BGP_SPACE,
        limit=limit,
    )
    findings = []
    for difference in _dedupe_by_prefix(differences):
        findings.append(
            PolicyBehaviorFinding(
                policy_name=original_map.name,
                direction=direction,
                neighbor=neighbor_ip,
                example_prefix=difference.route.prefix,
                original_action=difference.original_action,
                translated_action=difference.translated_action,
                transform_detail=(
                    difference.detail
                    if difference.kind is DifferenceKind.ATTRIBUTE_TRANSFORM
                    else ""
                ),
            )
        )
    return findings


def _dedupe_by_prefix(
    differences: List[BehaviorDifference],
) -> List[BehaviorDifference]:
    """One witness per (prefix, kind) — Campion reports localized examples,
    not the whole space."""
    seen = set()
    kept = []
    for difference in differences:
        key = (difference.route.prefix, difference.kind, difference.detail[:40])
        if key not in seen:
            seen.add(key)
            kept.append(difference)
    return kept
