"""Behavioural comparison of two route policies.

The Campion substitute uses this to implement the paper's fourth error
class, *policy behavior differences* (§3.1): "a difference would mean
that there are some route advertisements that are allowed by one router
but not allowed by the other", reported with an example prefix.  When
both policies permit a route but transform it differently (e.g. one
sets a MED the other does not — Table 2's "Setting wrong BGP MED value")
that is an *attribute-transform* difference.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from ..netmodel.device import RouterConfig
from ..netmodel.route import Route
from ..netmodel.routing_policy import (
    Action,
    PolicyEvaluationError,
    RouteMap,
)
from .candidates import CandidateUniverse
from .constraints import RouteConstraint

__all__ = ["BehaviorDifference", "DifferenceKind", "compare_policies"]


class DifferenceKind(enum.Enum):
    """What kind of behavioural divergence a witness route exhibits."""

    DISPOSITION = "disposition"
    ATTRIBUTE_TRANSFORM = "attribute_transform"


@dataclass(frozen=True)
class BehaviorDifference:
    """A route on which two policies disagree."""

    kind: DifferenceKind
    route: Route
    original_action: Action
    translated_action: Action
    detail: str = ""

    def describe(self) -> str:
        if self.kind is DifferenceKind.DISPOSITION:
            original = (
                "ACCEPT" if self.original_action is Action.PERMIT else "REJECT"
            )
            translated = (
                "ACCEPT" if self.translated_action is Action.PERMIT else "REJECT"
            )
            return (
                f"for the prefix {self.route.prefix}, the original policy "
                f"performs {original} but the translation performs {translated}"
            )
        return (
            f"for the prefix {self.route.prefix}, both policies accept "
            f"the route but transform it differently: {self.detail}"
        )


def compare_policies(
    original_config: RouterConfig,
    original_policy: RouteMap,
    translated_config: RouterConfig,
    translated_policy: RouteMap,
    constraint: Optional[RouteConstraint] = None,
    limit: int = 10,
) -> List[BehaviorDifference]:
    """Find routes the two policies treat differently.

    The candidate grid is built from *both* policies (and the optional
    input constraint) so it distinguishes every region either side can
    test.
    """
    universe = CandidateUniverse()
    universe.add_policy(original_config, original_policy)
    universe.add_policy(translated_config, translated_policy)
    if constraint is not None:
        universe.add_constraint(constraint)
    differences: List[BehaviorDifference] = []
    for route in universe.routes(constraint):
        difference = _compare_on(
            route,
            original_config,
            original_policy,
            translated_config,
            translated_policy,
        )
        if difference is not None:
            differences.append(difference)
            if len(differences) >= limit:
                break
    return differences


def _compare_on(
    route: Route,
    original_config: RouterConfig,
    original_policy: RouteMap,
    translated_config: RouterConfig,
    translated_policy: RouteMap,
) -> Optional[BehaviorDifference]:
    try:
        original = original_policy.evaluate(route, original_config)
    except PolicyEvaluationError:
        return None
    try:
        translated = translated_policy.evaluate(route, translated_config)
    except PolicyEvaluationError as exc:
        return BehaviorDifference(
            kind=DifferenceKind.DISPOSITION,
            route=route,
            original_action=original.action,
            translated_action=Action.DENY,
            detail=f"translation failed to evaluate: {exc}",
        )
    if original.action is not translated.action:
        return BehaviorDifference(
            kind=DifferenceKind.DISPOSITION,
            route=route,
            original_action=original.action,
            translated_action=translated.action,
        )
    if original.action is Action.PERMIT:
        detail = _transform_detail(original.route, translated.route)
        if detail:
            return BehaviorDifference(
                kind=DifferenceKind.ATTRIBUTE_TRANSFORM,
                route=route,
                original_action=original.action,
                translated_action=translated.action,
                detail=detail,
            )
    return None


def _transform_detail(original: Route, translated: Route) -> str:
    """Human-readable summary of attribute transform differences.

    Route attributes are interned (see repro.netmodel.route), so the common
    no-difference case — both policies returned the very same canonical
    route, or attribute instances are shared — short-circuits on
    pointer checks before any set/tuple comparison runs.
    """
    if original is translated:
        return ""
    parts: List[str] = []
    if original.med != translated.med:
        parts.append(
            f"the original sets MED to {original.med} but the translation "
            f"sets MED to {translated.med}"
        )
    if original.local_pref != translated.local_pref:
        parts.append(
            f"the original sets local-preference to {original.local_pref} "
            f"but the translation sets it to {translated.local_pref}"
        )
    if (
        original.communities is not translated.communities
        and original.communities != translated.communities
    ):
        original_set = (
            "{" + ", ".join(sorted(str(c) for c in original.communities)) + "}"
        )
        translated_set = (
            "{" + ", ".join(sorted(str(c) for c in translated.communities)) + "}"
        )
        parts.append(
            f"the original leaves communities {original_set} but the "
            f"translation leaves {translated_set}"
        )
    if original.next_hop != translated.next_hop:
        parts.append(
            f"next-hop differs: {original.next_hop} vs {translated.next_hop}"
        )
    if (
        original.as_path is not translated.as_path
        and original.as_path != translated.as_path
    ):
        parts.append(
            f"as-path differs: [{original.as_path}] vs [{translated.as_path}]"
        )
    return "; ".join(parts)
