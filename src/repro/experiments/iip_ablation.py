"""IIP ablation (§4.2's before/after).

The paper introduced four Initial Instruction Prompts because "some
GPT-4 errors were more common": CLI output, forbidden keywords, literal
``match community`` values, and non-additive ``set community``.  This
experiment runs the same synthesis task with and without the IIPs and
measures how many of those error classes reach the correction loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core import DEFAULT_IIP_IDS
from ..llm import BehaviorProfile
from .no_transit import NoTransitExperiment, run_no_transit_experiment
from .runs import run_once

__all__ = ["IipAblationResult", "run_iip_ablation"]


@dataclass
class IipAblationResult:
    """Prompt counts with and without the IIP database."""

    with_iips: NoTransitExperiment
    without_iips: NoTransitExperiment

    @property
    def syntax_prompts_with(self) -> int:
        return self.with_iips.result.prompt_log.by_stage().get("syntax", 0)

    @property
    def syntax_prompts_without(self) -> int:
        return self.without_iips.result.prompt_log.by_stage().get("syntax", 0)

    @property
    def suppressed_faults(self) -> int:
        """How many IIP-covered faults were absent from the first drafts."""
        with_counts = self.with_iips.initial_draft_fault_counts()
        without_counts = self.without_iips.initial_draft_fault_counts()
        return sum(without_counts.values()) - sum(with_counts.values())

    def render(self) -> str:
        return (
            f"IIP ablation (7-router star): with IIPs "
            f"{self.with_iips.automated_prompts} automated prompts "
            f"({self.syntax_prompts_with} syntax); without IIPs "
            f"{self.without_iips.automated_prompts} automated prompts "
            f"({self.syntax_prompts_without} syntax); "
            f"{self.suppressed_faults} draft error(s) prevented by the IIPs; "
            f"both verified: "
            f"{self.with_iips.result.verified and self.without_iips.result.verified}"
        )


def run_iip_ablation(
    router_count: int = 7,
    seed: int = 0,
    profile: Optional[BehaviorProfile] = None,
) -> IipAblationResult:
    """Run the synthesis experiment with the full IIP set and with none."""
    with_iips = run_once(
        run_no_transit_experiment,
        router_count=router_count,
        seed=seed,
        iip_ids=DEFAULT_IIP_IDS,
        profile=profile,
    )
    without_iips = run_once(
        run_no_transit_experiment,
        router_count=router_count,
        seed=seed,
        iip_ids=(),
        profile=profile,
    )
    return IipAblationResult(with_iips=with_iips, without_iips=without_iips)
