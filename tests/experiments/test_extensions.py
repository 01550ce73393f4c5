"""Tests for the extension experiments (incremental policy, IIP
ablation) and the CLI."""

import pytest

from repro.experiments import (
    run_iip_ablation,
    run_incremental_policy_experiment,
)


class TestIncrementalPolicy:
    def test_interference_caught_and_repaired(self):
        result = run_incremental_policy_experiment(seed=0)
        assert result.verified
        assert result.interference_caught
        assert result.prompt_log.automated >= 2

    def test_interference_finding_is_old_invariant(self):
        result = run_incremental_policy_experiment(seed=0)
        messages = [finding.message for finding in result.findings]
        assert any(
            "permits routes that have the community" in message
            for message in messages
        )
        assert any("must be prepended" in message for message in messages)

    def test_negative_control_ships_broken(self):
        """Without re-verifying the old invariants, the interference is
        invisible to the loop and no-transit ships broken."""
        control = run_incremental_policy_experiment(
            seed=0, recheck_old_invariants=False
        )
        assert not control.verified
        assert not control.interference_caught

    def test_render(self):
        result = run_incremental_policy_experiment(seed=0)
        assert "caught and repaired" in result.render()

    def test_global_check_resimulates_incrementally(self):
        """The final global check converges the verified star once and
        re-simulates only the edited hub's dependency cone."""
        result = run_incremental_policy_experiment(seed=0)
        assert result.global_check is not None
        assert result.global_check.holds
        assert result.global_sim is not None
        assert result.global_sim.incremental
        assert result.global_sim.dirty_routers == 1  # only R1 changed
        assert result.global_sim.reused_entries > 0
        assert "global no-transit holds" in result.render()

    def test_negative_control_breaks_global_check(self):
        """The shipped interference is visible to the BGP simulation:
        the negative control's no-transit property is globally broken."""
        control = run_incremental_policy_experiment(
            seed=0, recheck_old_invariants=False
        )
        assert control.global_check is not None
        assert not control.global_check.holds
        assert "BROKEN" in control.render()


class TestIipAblation:
    def test_iips_prevent_draft_errors(self):
        ablation = run_iip_ablation(seed=0)
        assert ablation.suppressed_faults >= 3  # the paper's IIP classes
        assert ablation.syntax_prompts_without > ablation.syntax_prompts_with

    def test_both_arms_verify(self):
        ablation = run_iip_ablation(seed=0)
        assert ablation.with_iips.result.verified
        assert ablation.without_iips.result.verified

    def test_render(self):
        assert "IIP ablation" in run_iip_ablation(seed=0).render()


class TestCli:
    def test_translate_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["translate", "--seed", "0"]) == 0
        output = capsys.readouterr().out
        assert "leverage" in output

    def test_synthesize_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["synthesize", "--seed", "0"]) == 0
        assert "no-transit" in capsys.readouterr().out

    def test_incremental_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["incremental"]) == 0

    def test_incremental_no_recheck_exits_nonzero(self, capsys):
        from repro.cli import main

        assert main(["incremental", "--no-recheck"]) == 1

    def test_sweep(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "mean" in out
        assert [line[:7] for line in out.splitlines() if "a/" in line] == [
            "seed=0:", "seed=1:",
        ]

    def test_unknown_command_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["frobnicate"])
