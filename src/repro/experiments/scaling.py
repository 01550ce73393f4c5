"""Scaling extension: leverage vs star size.

The paper closes with "much further testing in more complex use cases is
needed"; this experiment sweeps the star size (Figure 4's parameter) and
measures how prompt counts and leverage evolve — the fault assignment is
fixed, so added routers dilute errors and automated prompts dominate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core import DEFAULT_IIP_IDS
from ..llm import BehaviorProfile
from .no_transit import run_no_transit_experiment
from .runs import run_once

__all__ = ["ScalingPoint", "run_scaling_sweep"]


@dataclass(frozen=True)
class ScalingPoint:
    """One row of the scaling series."""

    router_count: int
    automated_prompts: int
    human_prompts: int
    leverage: float
    verified: bool

    def render(self) -> str:
        leverage = (
            "inf" if self.leverage == float("inf") else f"{self.leverage:.1f}"
        )
        return (
            f"n={self.router_count:>2}  automated={self.automated_prompts:>3}  "
            f"human={self.human_prompts:>2}  leverage={leverage:>5}X  "
            f"verified={self.verified}"
        )


def run_scaling_sweep(
    sizes: Sequence[int] = (4, 5, 6, 7, 8, 10),
    seed: int = 0,
    profile: Optional[BehaviorProfile] = None,
) -> List[ScalingPoint]:
    """Run the no-transit experiment across star sizes."""
    points: List[ScalingPoint] = []
    for size in sizes:
        experiment = run_once(
            run_no_transit_experiment,
            router_count=size,
            seed=seed,
            iip_ids=DEFAULT_IIP_IDS,
            profile=profile,
        )
        log = experiment.result.prompt_log
        points.append(
            ScalingPoint(
                router_count=size,
                automated_prompts=log.automated,
                human_prompts=log.human,
                leverage=log.leverage(),
                verified=experiment.result.verified,
            )
        )
    return points
