"""Tests for the table renderers and sample-prompt harvesting."""

import functools
import sys

from repro.cli import main
from repro.experiments.no_transit import run_no_transit_experiment
from repro.experiments.prompts import (
    all_stage_prompts,
    sample_synthesis_prompts,
    sample_translation_prompts,
)
from repro.experiments.tables import (
    render_figure4,
    render_leverage_no_transit,
    render_leverage_translation,
    render_table1,
    render_table2,
    render_table3,
)
from repro.experiments.translation import run_translation_experiment


class TestSamplePrompts:
    def test_translation_covers_four_classes(self):
        stages = [stage for stage, _ in sample_translation_prompts(seed=0)]
        assert stages == ["syntax", "structural", "attribute", "policy"]

    def test_synthesis_covers_three_classes(self):
        stages = [stage for stage, _ in sample_synthesis_prompts(seed=0)]
        assert stages == ["syntax", "topology", "semantic"]

    def test_prompts_carry_spliced_fields(self):
        prompts = dict(sample_translation_prompts(seed=0))
        assert "2.3.4.5" in prompts["structural"] or "1.2.3.9" in prompts["structural"]
        assert "Loopback0" in prompts["attribute"]

    def test_all_stage_prompts(self):
        from repro.experiments import run_translation_experiment

        experiment = run_translation_experiment(seed=0)
        syntax = all_stage_prompts(
            experiment.result.prompt_log.records, "syntax"
        )
        assert all("syntax error" in prompt for prompt in syntax)


class TestRenderers:
    def test_table1_sections(self):
        text = render_table1(seed=0)
        assert text.startswith("Table 1")
        assert "[syntax]" in text

    def test_table2_column_header(self):
        text = render_table2(seed=0)
        assert "Error" in text and "Fixed" in text

    def test_table3_paper_phrasing(self):
        text = render_table3(seed=0)
        assert "However, they should be denied." in text

    def test_leverage_lines_mention_paper_targets(self):
        assert "10X" in render_leverage_translation(seed=0)
        assert "6X" in render_leverage_no_transit(seed=0)

    def test_figure4_structure(self):
        text = render_figure4(router_count=5)
        assert "routers: 5" in text
        assert "links: 4" in text
        assert "external peers: 5" in text


#: The first line of every ``repro tables`` section, in print order.
SECTION_HEADERS = [
    "Table 1: sample rectification prompts for translation",
    "Table 2: translation errors found and whether the generated prompt "
    "sufficed",
    "Cisco-to-Juniper translation:",
    "Table 3: sample rectification prompts for local synthesis",
    "No-transit synthesis (7-router star):",
    "Figure 1 vs Figure 2: pair programming vs VPP",
    "Local vs global specification prompts",
    "Leverage vs star size (extension)",
    "Figure 4: star network topology used for local synthesis",
    "Figure 3: COSYNTH pipeline trace (translation use case)",
    "IIP ablation (7-router star):",
    "Incremental policy addition (paper §6 question)",
    "Leverage distribution across seeds",
]


def _count_experiment_runs(monkeypatch):
    """Route every reference to the two experiment functions through a
    counting wrapper; returns the list each real run appends to."""
    runs = []
    for original in (run_translation_experiment, run_no_transit_experiment):

        @functools.wraps(original)
        def counted(*args, _original=original, **kwargs):
            runs.append(_original.__name__)
            return _original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro."):
                continue
            if getattr(module, original.__name__, None) is original:
                monkeypatch.setattr(module, original.__name__, counted)
    return runs


def test_tables_command_prints_every_artifact(capsys, monkeypatch):
    """``repro tables`` at seed 0: every section in order, the paper's
    headline numbers pinned exactly, each distinct experiment run once
    (6 translation, 12 no-transit)."""
    runs = _count_experiment_runs(monkeypatch)
    assert main(["tables"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(runs) == 18
    assert runs.count("run_translation_experiment") == 6

    starts = [
        next(i for i, line in enumerate(lines) if line.startswith(header))
        for header in SECTION_HEADERS
    ]
    assert starts == sorted(starts)

    # §3.2 and §4.2 leverage (paper: ~10X and 6X).
    assert (
        "Cisco-to-Juniper translation: 19 automated prompts, 2 human "
        "prompts -> leverage 9.5X (paper: ~20/2 = 10X); verified=True"
    ) in lines
    assert (
        "No-transit synthesis (7-router star): 14 automated prompts, 2 "
        "human prompts -> leverage 7.0X (paper: 12/2 = 6X); verified=True"
    ) in lines
    # Table 2: exactly the paper's two errors need a human.
    not_fixed = [line.split("  ")[0] for line in lines if line.endswith(" No")]
    assert not_fixed == [
        "Different redistribution into BGP",
        "Different prefix lengths match in BGP",
    ]
    assert "[topology]" in lines and "[semantic]" in lines
    (global_spec,) = [line for line in lines if line.startswith("global spec:")]
    assert "did NOT converge" in global_spec
    assert "as-path-regex -> deny-at-customer" in global_spec

    assert any(line.startswith("stage sequence: syntax") for line in lines)
    assert "verified: True" in lines
    (iip,) = [line for line in lines if line.startswith("IIP ablation")]
    assert "draft error(s) prevented" in iip
    assert "both verified: True" in iip
    (checked,) = [line for line in lines if line.startswith("with re-")]
    (control,) = [line for line in lines if line.startswith("without re-")]
    assert "caught and repaired" in checked
    assert "NOT caught" in control
    assert (
        "seed=0: translation 19a/2h =  9.5X | synthesis 14a/2h =  7.0X"
    ) in lines


def test_run_once_shares_only_inside_a_scope():
    from repro.experiments.runs import run_once, shared_runs

    calls = []

    def experiment(seed=0, profile=None):
        calls.append((seed, profile))
        return object()

    assert run_once(experiment, seed=0) is not run_once(experiment, seed=0)
    with shared_runs():
        first = run_once(experiment, seed=0)
        assert run_once(experiment, seed=0, profile=None) is first
        assert run_once(experiment) is first
        assert run_once(experiment, seed=1) is not first
    assert run_once(experiment, seed=0) is not first
    assert len(calls) == 5
