"""Figure 1 vs Figure 2 ablation: pair programming vs VPP.

The paper's central claim is that the verifier suite converts manual
correction prompts into automated ones.  The ablation runs the *same*
faulty drafts through both regimes:

* **VPP** (Figure 2) — the verifier loop issues corrections
  automatically, punting to the human only when stuck;
* **pair programming** (Figure 1) — no automation: every correction
  prompt is issued by the human (the paper's assumption that "every
  automatic correction in Figure 2 would otherwise be done by a human
  in Figure 1").

The reduction in human prompts is the leverage made visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..llm import BehaviorProfile
from .no_transit import run_no_transit_experiment
from .runs import run_once
from .translation import run_translation_experiment

__all__ = ["AblationResult", "run_translation_ablation", "run_synthesis_ablation"]


@dataclass
class AblationResult:
    """Human effort under both regimes for one use case."""

    use_case: str
    vpp_human: int
    vpp_automated: int
    pair_programming_human: int

    @property
    def human_effort_reduction(self) -> float:
        """How many times fewer human prompts VPP needed."""
        if self.vpp_human == 0:
            return float("inf")
        return self.pair_programming_human / self.vpp_human

    def render(self) -> str:
        return (
            f"{self.use_case}: pair programming needed "
            f"{self.pair_programming_human} human prompts; VPP needed "
            f"{self.vpp_human} human + {self.vpp_automated} automated "
            f"(reduction {self.human_effort_reduction:.1f}x)"
        )


def run_translation_ablation(
    seed: int = 0, profile: Optional[BehaviorProfile] = None
) -> AblationResult:
    vpp = run_once(run_translation_experiment, seed=seed, profile=profile)
    manual = run_once(
        run_translation_experiment,
        seed=seed,
        profile=profile,
        pair_programming=True,
    )
    return _to_result("translation", vpp, manual)


def run_synthesis_ablation(
    seed: int = 0, profile: Optional[BehaviorProfile] = None
) -> AblationResult:
    vpp = run_once(run_no_transit_experiment, seed=seed, profile=profile)
    manual = run_once(
        run_no_transit_experiment,
        seed=seed,
        profile=profile,
        pair_programming=True,
    )
    return _to_result("no-transit synthesis", vpp, manual)


def _to_result(use_case, vpp, manual) -> AblationResult:
    return AblationResult(
        use_case=use_case,
        vpp_human=vpp.result.prompt_log.human,
        vpp_automated=vpp.result.prompt_log.automated,
        pair_programming_human=manual.result.prompt_log.human,
    )
