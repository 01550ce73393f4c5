"""Paper-style rendering of every paper artifact.

Each function returns the printable text of one table, figure or
measured claim; :func:`render_all` (``repro tables``) joins them all in
paper order, then the extensions, so its output can be read
line-by-line against the paper.  Every section is deterministic for a
given seed, so sections that report on the same experiment run share
one result (:mod:`repro.experiments.runs`).
"""

from __future__ import annotations

import statistics

from .ablation import run_synthesis_ablation, run_translation_ablation
from .iip_ablation import run_iip_ablation
from .incremental import run_incremental_policy_experiment
from .local_vs_global import run_local_vs_global
from .no_transit import run_no_transit_experiment
from .prompts import sample_synthesis_prompts, sample_translation_prompts
from .runs import run_once, shared_runs
from .scaling import run_scaling_sweep
from .translation import run_translation_experiment

__all__ = [
    "render_all",
    "render_figure4",
    "render_iip_ablation",
    "render_incremental_policy",
    "render_leverage_no_transit",
    "render_leverage_translation",
    "render_local_vs_global",
    "render_pipeline_trace",
    "render_scaling",
    "render_seed_distribution",
    "render_table1",
    "render_table2",
    "render_table3",
    "render_vpp_ablation",
]

_RULE = "-" * 72

#: Seeds the leverage-distribution section sweeps.
SEED_SWEEP = 5


def render_table1(seed: int = 0) -> str:
    """Table 1: sample rectification prompts for translation."""
    lines = ["Table 1: sample rectification prompts for translation", _RULE]
    for stage, prompt in sample_translation_prompts(seed=seed):
        lines.append(f"[{stage}]")
        lines.append(f"  {prompt}")
    return "\n".join(lines)


def render_table2(seed: int = 0) -> str:
    """Table 2: translation errors and whether GPT-4 fixed them."""
    experiment = run_once(run_translation_experiment, seed=seed)
    lines = [
        "Table 2: translation errors found and whether the generated "
        "prompt sufficed",
        _RULE,
        f"{'Error':<45} {'Type':<20} Fixed",
        _RULE,
    ]
    for row in experiment.table2_rows():
        lines.append(row.render())
    return "\n".join(lines)


def render_leverage_translation(seed: int = 0) -> str:
    """§3.2's leverage measurement."""
    experiment = run_once(run_translation_experiment, seed=seed)
    log = experiment.result.prompt_log
    return (
        f"Cisco-to-Juniper translation: {log.automated} automated prompts, "
        f"{log.human} human prompts -> leverage "
        f"{experiment.leverage:.1f}X (paper: ~20/2 = 10X); "
        f"verified={experiment.result.verified}"
    )


def render_table3(seed: int = 0) -> str:
    """Table 3: sample rectification prompts for local synthesis."""
    lines = ["Table 3: sample rectification prompts for local synthesis", _RULE]
    for stage, prompt in sample_synthesis_prompts(seed=seed):
        lines.append(f"[{stage}]")
        lines.append(f"  {prompt}")
    return "\n".join(lines)


def render_leverage_no_transit(seed: int = 0) -> str:
    """§4.2's leverage measurement."""
    experiment = run_once(run_no_transit_experiment, seed=seed)
    log = experiment.result.prompt_log
    return (
        f"No-transit synthesis (7-router star): {log.automated} automated "
        f"prompts, {log.human} human prompts -> leverage "
        f"{experiment.leverage:.1f}X (paper: 12/2 = 6X); "
        f"verified={experiment.result.verified}"
    )


def render_vpp_ablation(seed: int = 0) -> str:
    """Figure 1 vs Figure 2 as data."""
    lines = ["Figure 1 vs Figure 2: pair programming vs VPP", _RULE]
    lines.append(run_translation_ablation(seed=seed).render())
    lines.append(run_synthesis_ablation(seed=seed).render())
    return "\n".join(lines)


def render_local_vs_global(seed: int = 0) -> str:
    """§4.1's local-vs-global comparison."""
    result = run_local_vs_global(seed=seed)
    return (
        "Local vs global specification prompts\n" + _RULE + "\n" + result.render()
    )


def render_scaling(seed: int = 0) -> str:
    """The scaling extension series."""
    lines = ["Leverage vs star size (extension)", _RULE]
    for point in run_scaling_sweep(seed=seed):
        lines.append(point.render())
    return "\n".join(lines)


def render_figure4(router_count: int = 7) -> str:
    """Figure 4: the star topology, as ASCII plus its JSON description."""
    from ..topology import generate_star_network

    star = generate_star_network(router_count)
    names = [name for name in star.topology.router_names() if name != "R1"]
    lines = ["Figure 4: star network topology used for local synthesis", _RULE]
    lines.append("            CUSTOMER")
    lines.append("                |")
    lines.append("               R1")
    spokes = "   ".join(names)
    lines.append("      /   " * 1 + "|  ...  \\")
    lines.append(f"   {spokes}")
    isps = "   ".join(f"ISP_{name[1:]}" for name in names)
    lines.append(f"   {isps}")
    lines.append(_RULE)
    lines.append(f"routers: {len(star.topology.routers)}, "
                 f"links: {len(star.topology.links)}, "
                 f"external peers: {len(star.topology.externals)}")
    return "\n".join(lines)


def render_pipeline_trace(seed: int = 0) -> str:
    """Figure 3 as data: the verifier-stage sequence of the translation
    loop.  Syntax is verified before semantics, and a semantic fix can
    re-enter the syntax stage (a back-edge)."""
    experiment = run_once(run_translation_experiment, seed=seed)
    transcript = experiment.result.transcript
    sequence = transcript.stage_sequence()
    lines = [
        "Figure 3: COSYNTH pipeline trace (translation use case)",
        _RULE,
        "stage sequence: " + " -> ".join(sequence),
        f"back edges (later stage returned to earlier): "
        f"{transcript.back_edges()}",
        f"punts to human: {transcript.punts()}",
        f"verified: {experiment.result.verified}",
    ]
    return "\n".join(lines)


def render_iip_ablation(seed: int = 0) -> str:
    """§4.2's IIP before/after: the Initial Instruction Prompts prevent
    the common draft errors, shrinking the syntax-correction load."""
    return run_iip_ablation(seed=seed).render()


def render_incremental_policy(seed: int = 0) -> str:
    """§6's question: can a new policy be added without interfering with
    verified ones?  The loop re-verifies the old invariants; the negative
    control does not."""
    with_recheck = run_incremental_policy_experiment(seed=seed)
    control = run_incremental_policy_experiment(
        seed=seed, recheck_old_invariants=False
    )
    return "\n".join(
        [
            "Incremental policy addition (paper §6 question)",
            _RULE,
            "with re-verification:    " + with_recheck.render(),
            "without re-verification: " + control.render(),
        ]
    )


def render_seed_distribution(seed: int = 0, seeds: int = SEED_SWEEP) -> str:
    """Both headline leverages over ``seeds`` seeds from ``seed`` on
    (the paper reports single runs)."""
    lines = ["Leverage distribution across seeds", _RULE]
    translation, synthesis = [], []
    for sweep_seed in range(seed, seed + seeds):
        t = run_once(run_translation_experiment, seed=sweep_seed)
        s = run_once(run_no_transit_experiment, seed=sweep_seed)
        translation.append(t.leverage)
        synthesis.append(s.leverage)
        lines.append(
            f"seed={sweep_seed}: translation {t.automated_prompts:>2}a/"
            f"{t.human_prompts}h = {t.leverage:>4.1f}X | synthesis "
            f"{s.automated_prompts:>2}a/{s.human_prompts}h = "
            f"{s.leverage:>4.1f}X"
        )
    lines.append(
        f"translation: mean {statistics.mean(translation):.1f}X "
        f"(paper ~10X); synthesis: mean {statistics.mean(synthesis):.1f}X "
        f"(paper 6X)"
    )
    return "\n".join(lines)


def render_all(seed: int = 0) -> str:
    """Every section, paper artifacts first, then the extensions: the
    text ``repro tables`` prints.  Each distinct experiment runs once."""
    with shared_runs():
        return "\n\n".join(
            [
                render_table1(seed=seed),
                render_table2(seed=seed),
                render_leverage_translation(seed=seed),
                render_table3(seed=seed),
                render_leverage_no_transit(seed=seed),
                render_vpp_ablation(seed=seed),
                render_local_vs_global(seed=seed),
                render_scaling(seed=seed),
                render_figure4(),
                render_pipeline_trace(seed=seed),
                render_iip_ablation(seed=seed),
                render_incremental_policy(seed=seed),
                render_seed_distribution(seed=seed),
            ]
        )
