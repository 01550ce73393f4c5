"""Experiment drivers that regenerate every table and figure.

See DESIGN.md's per-experiment index for the mapping from paper artifact
to driver and bench.
"""

from .ablation import (
    AblationResult,
    run_synthesis_ablation,
    run_translation_ablation,
)
from .campaign import (
    CampaignSummary,
    FamilySummary,
    Scenario,
    ScenarioResult,
    build_grid,
    run_campaign,
    run_scenario,
)
from .data import BATFISH_EXAMPLE_CISCO, load_translation_source
from .iip_ablation import IipAblationResult, run_iip_ablation
from .incremental import IncrementalResult, run_incremental_policy_experiment
from .local_vs_global import (
    LocalVsGlobalResult,
    OscillatingGlobalModel,
    run_local_vs_global,
)
from .no_transit import (
    NoTransitExperiment,
    materialize_network,
    run_no_transit_experiment,
)
from .prompts import sample_synthesis_prompts, sample_translation_prompts
from .scaling import ScalingPoint, run_scaling_sweep
from .translation import (
    Table2Row,
    TranslationExperiment,
    run_translation_experiment,
)

__all__ = [
    "AblationResult",
    "BATFISH_EXAMPLE_CISCO",
    "CampaignSummary",
    "FamilySummary",
    "IipAblationResult",
    "IncrementalResult",
    "LocalVsGlobalResult",
    "NoTransitExperiment",
    "OscillatingGlobalModel",
    "ScalingPoint",
    "Scenario",
    "ScenarioResult",
    "Table2Row",
    "TranslationExperiment",
    "build_grid",
    "load_translation_source",
    "materialize_network",
    "run_campaign",
    "run_iip_ablation",
    "run_incremental_policy_experiment",
    "run_local_vs_global",
    "run_no_transit_experiment",
    "run_scaling_sweep",
    "run_scenario",
    "run_synthesis_ablation",
    "run_translation_ablation",
    "run_translation_experiment",
    "sample_synthesis_prompts",
    "sample_translation_prompts",
]
