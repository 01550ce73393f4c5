"""The fuzz loop end to end: clean runs, the planted-bug self-test,
crash findings, shrinking, journaling, and worker-count determinism.

The planted-bug tests are the harness's acceptance contract: a fuzzer
is only trustworthy if, handed a known historical bug (an
arrival-order tie-break, planted in the reference comparator behind
the hidden ``legacy-tiebreak`` flag), it finds the divergence, shrinks
it, and emits a corpus record that fails while the bug is planted and
passes the moment it is fixed.
"""

import json

import pytest

import repro.fuzz.harness as harness_module
from repro.batfish.bgpsim import BgpSimulation, SimulationState
from repro.fuzz import oracle, reference
from repro.fuzz.corpus import replay_record, repro_filename
from repro.fuzz.harness import (
    FuzzConfig,
    fold_fuzz_journal,
    run_fuzz,
    run_fuzz_iteration,
)
from repro.fuzz.reference import _plant_bug, _planted_bugs
from repro.fuzz.scenarios import FuzzScenario

# Seed 55's index 1 is the planted-bug finding the contract tests
# shrink; its index 0 finds the bug too, so two iterations give the
# worker-count test two findings to order.
PLANTED_SEED = 55
PLANTED_ITERATIONS = 2


class TestRunFuzzIteration:
    def test_clean_iteration_is_ok(self):
        result = run_fuzz_iteration(0, 0)
        assert result.ok
        assert result.repro is None
        assert result.error is None

    def test_unknown_planted_bug_is_rejected(self):
        with pytest.raises(ValueError, match="unknown planted bug"):
            run_fuzz_iteration(0, 0, planted=("no-such-bug",))

    def test_planted_state_is_restored_even_after_a_find(self):
        result = run_fuzz_iteration(
            PLANTED_SEED, 1, planted=("legacy-tiebreak",)
        )
        assert not result.ok
        assert _planted_bugs() == frozenset()

    def test_iteration_observes_reference_full_and_incremental(
        self, monkeypatch
    ):
        """A clean iteration is exactly three observations: the
        reference, then the full and incremental production paths."""
        calls = []
        real_observe = oracle.observe
        real_reference = oracle.observe_reference

        def observe(scenario, path):
            calls.append(path)
            return real_observe(scenario, path)

        def observe_reference(scenario):
            calls.append("reference")
            return real_reference(scenario)

        monkeypatch.setattr(oracle, "observe", observe)
        monkeypatch.setattr(oracle, "observe_reference", observe_reference)
        assert run_fuzz_iteration(0, 0).ok
        assert calls == ["reference", "full", "incremental"]

    def test_journal_rows_name_no_combination(self, tmp_path):
        journal = tmp_path / "fuzz.jsonl"
        run_fuzz(
            FuzzConfig(fuzz_seed=0, iterations=1, corpus_dir=tmp_path / "c"),
            journal_path=journal,
        )
        header, row = (json.loads(line) for line in journal.open())
        assert header["version"] == harness_module.FUZZ_JOURNAL_VERSION == 4
        assert "combos" not in header
        assert "combo" not in row


class TestPlantedBugContract:
    @pytest.fixture(scope="class")
    def finding(self):
        return run_fuzz_iteration(
            PLANTED_SEED, 1, planted=("legacy-tiebreak",)
        )

    def test_planted_bug_is_found(self, finding):
        assert not finding.ok
        assert finding.check == "semantic"
        assert finding.repro is not None
        assert finding.mismatch and "diverged" in finding.mismatch
        # The planted bug lives in the reference, so the first path
        # compared against it is the one named.
        assert finding.mismatch.startswith("full path: step 0:")

    def test_shrinker_minimized_the_scenario(self, finding):
        """The generated scenario at (55, 1) carries several edits; the
        planted tie bug needs none of them, so the shrunk repro must be
        strictly smaller than the original."""
        from repro.fuzz.scenarios import scenario_at

        original = scenario_at(PLANTED_SEED, 1)
        assert original.edits  # there was something to shrink away
        shrunk = finding.repro["scenario"]
        assert shrunk["edits"] == []
        assert shrunk["roles"] == "default"
        assert shrunk["topo"] == "default"
        assert shrunk["place"] == "default"
        assert shrunk["topology_seed"] == 0

    def test_corpus_record_fails_planted_and_passes_fixed(self, finding):
        """The acceptance criterion: the emitted corpus file fails
        before the fix (bug planted) and passes after (bug unplanted —
        the reference comparator carries the total tie-break)."""
        record = finding.repro
        _plant_bug("legacy-tiebreak", True)
        try:
            assert replay_record(record) is not None
        finally:
            _plant_bug("legacy-tiebreak", False)
        assert replay_record(record) is None

    def test_repro_filename_is_content_addressed(self, finding):
        name = repro_filename(finding.repro)
        assert name.startswith("fuzz-")
        assert name.endswith(".json")
        assert repro_filename(finding.repro) == name
        # Only the scenario and the check are hashed.
        relabeled = {**finding.repro, "mismatch": "other", "index": 99}
        assert repro_filename(relabeled) == name

    def test_record_names_no_combination(self, finding):
        assert "combo" not in finding.repro
        assert "baseline" not in finding.repro


class TestCrashFindings:
    """A raise in the reference or a production path is an ``ok=False``
    ``crash`` finding that shrinks and replays like a divergence; only a
    scenario-generation ``ValueError`` is still a skip."""

    def test_reference_crash_is_a_finding(self, monkeypatch):
        def boom(configs):
            raise RuntimeError("reference boom")

        monkeypatch.setattr(reference, "simulate", boom)
        result = run_fuzz_iteration(0, 0)
        assert not result.ok
        assert result.check == "crash"
        assert result.error is None
        assert result.mismatch.startswith(
            "reference crashed: RuntimeError at test_harness.py:"
        )
        assert result.mismatch.endswith("in boom: reference boom")
        assert result.repro["check"] == "crash"
        # The crash needs no edit, so the shrinker dropped them all.
        assert result.repro["scenario"]["edits"] == []

    def test_incremental_path_crash_is_a_finding(self, monkeypatch):
        """``resimulate`` with a named router runs only on the
        incremental path (the full path and the fresh global checkers
        converge from scratch), so the crash fires there alone."""
        real = SimulationState.resimulate

        def boom(self, configs, changed_routers=None):
            if changed_routers is not None and self.warm:
                raise KeyError("incremental boom")
            return real(self, configs, changed_routers)

        monkeypatch.setattr(SimulationState, "resimulate", boom)
        result = run_fuzz_iteration(0, 0)
        assert not result.ok
        assert result.check == "crash"
        assert result.mismatch.startswith(
            "incremental path crashed: KeyError at test_harness.py:"
        )
        assert "in boom" in result.mismatch
        assert replay_record(result.repro) is not None
        monkeypatch.undo()
        assert replay_record(result.repro) is None

    def test_memo_traffic_divergence_is_a_finding(self, monkeypatch):
        """The incremental path's memo traffic is held to the full
        path's; a divergence there is a ``memo`` finding that shrinks
        and replays like any other."""
        real_observe = oracle.observe

        def observe(scenario, path):
            observation = real_observe(scenario, path)
            if path == "incremental":
                observation["memo"][0] += 1
            return observation

        monkeypatch.setattr(oracle, "observe", observe)
        result = run_fuzz_iteration(0, 0)
        assert not result.ok
        assert result.check == "memo"
        assert result.mismatch.startswith(
            "incremental path: memo traffic diverged: full ["
        )
        assert result.repro["check"] == "memo"
        assert result.repro["scenario"]["edits"] == []
        assert replay_record(result.repro) is not None
        monkeypatch.undo()
        assert replay_record(result.repro) is None

    def test_generation_value_error_stays_a_skip(self, monkeypatch):
        def impossible(scenario):
            raise ValueError("impossible coordinates")

        monkeypatch.setattr(
            harness_module, "materialize_scenario", impossible
        )
        result = run_fuzz_iteration(0, 0)
        assert result.ok
        assert result.check is None
        assert result.error == "ValueError: impossible coordinates"


class TestExportsFindings:
    """Every step observes what each external attachment is exported;
    the production paths read it from ``BgpSimulation.exported``, the
    reference from its own spec-derived export step."""

    # Two customers and two dual-homed ISPs on a random graph: the
    # egress filters withhold each ISP's prefixes from the other.
    SCENARIO = FuzzScenario(
        family="random", size=6, topology_seed=3, roles="c2i2h2"
    )

    def test_every_step_carries_one_export_list_per_attachment(self):
        topology = oracle.materialize_scenario(self.SCENARIO).topology
        attachments = {
            f"{peer.router} -> {peer.peer_ip}" for peer in topology.externals
        }
        for observation in (
            oracle.observe_reference(self.SCENARIO),
            oracle.observe(self.SCENARIO, "full"),
            oracle.observe(self.SCENARIO, "incremental"),
        ):
            for step in observation["steps"]:
                assert set(step["exports"]) == attachments
        assert oracle.compare(self.SCENARIO) is None

    def test_export_map_ignored_is_an_exports_finding(self, monkeypatch):
        """A production ``exported`` that skips the export map hands the
        global check the same wrong answer on every side, so only the
        reference's own export step can catch it."""
        monkeypatch.setattr(
            BgpSimulation,
            "exported",
            lambda self, router, peer_ip: frozenset(self.rib(router)),
        )
        check, detail = oracle.compare(self.SCENARIO)
        assert check == "exports"
        assert detail.startswith("full path: step 0: exports diverged")
        monkeypatch.undo()
        assert oracle.compare(self.SCENARIO) is None


class TestFindingSignature:
    """Shrinking keeps a finding's check and the side it names; a crash
    also keeps its exception type and site, but not its message."""

    @pytest.mark.parametrize(
        "check,detail,same,other",
        [
            (
                "semantic",
                "full path: step 2: RIBs diverged — router R1",
                "full path: step 0: global verdict diverged",
                "incremental path: step 2: RIBs diverged — router R1",
            ),
            (
                "memo",
                "incremental path: memo traffic diverged: full [1, 2]",
                "incremental path: memo traffic diverged: full [3, 4]",
                "full path: memo traffic diverged: full [1, 2]",
            ),
            (
                "crash",
                "reference crashed: KeyError at a.py:3 in f: 'R1'",
                "reference crashed: KeyError at a.py:3 in f: 'R7'",
                "reference crashed: KeyError at a.py:9 in g: 'R1'",
            ),
        ],
    )
    def test_signature_keeps_what_a_shrink_must_preserve(
        self, check, detail, same, other
    ):
        signature = oracle.finding_signature(check, detail)
        assert oracle.finding_signature(check, same) == signature
        assert oracle.finding_signature(check, other) != signature


class TestRunFuzz:
    def test_requires_iterations_or_budget(self, tmp_path):
        with pytest.raises(ValueError, match="iterations or budget"):
            run_fuzz(FuzzConfig(corpus_dir=tmp_path / "corpus"))

    def test_journal_resume_skips_completed_indices(self, tmp_path):
        journal = tmp_path / "fuzz.jsonl"
        corpus = tmp_path / "corpus"
        config = FuzzConfig(
            fuzz_seed=0, iterations=2, corpus_dir=corpus
        )
        first = run_fuzz(config, journal_path=journal, resume=False)
        assert len(first.results) == 2
        lines_before = journal.read_text().count("\n")
        resumed = run_fuzz(
            FuzzConfig(
                fuzz_seed=0, iterations=3, corpus_dir=corpus
            ),
            journal_path=journal,
            resume=True,
        )
        assert len(resumed.results) == 3
        assert resumed.resumed == 2
        # Only index 2 was journaled by the resumed run.
        assert journal.read_text().count("\n") == lines_before + 1
        folded = fold_fuzz_journal(journal)
        assert sorted(folded) == [0, 1, 2]

    def test_v2_journal_still_folds_and_resumes(self, tmp_path):
        """A journal written before the reference oracle (version 2: a
        ``pairs`` header field, five-toggle combos) folds and resumes;
        the ``combo`` column it carries is ignored."""
        from repro.fuzz.scenarios import scenario_at

        legacy_combo = {
            "batched_evaluation": True,
            "decision_cache": True,
            "incremental_simulation": True,
            "memoization": True,
            "route_model": "v2",
        }
        rows = [
            {"kind": "fuzz", "version": 2, "fuzz_seed": 0, "pairs": True,
             "combos": 6},
            {"kind": "fuzz_result", "index": 0, "key": scenario_at(0, 0).key(),
             "ok": True, "check": None, "combo": None, "mismatch": None,
             "repro": None, "error": None, "broken": False,
             "lint_findings": 0, "lint_high": 0, "recall_gap": False},
            {"kind": "fuzz_result", "index": 1, "key": scenario_at(0, 1).key(),
             "ok": False, "check": "semantic", "combo": legacy_combo,
             "mismatch": "step 0: RIBs diverged", "repro": None,
             "error": None, "broken": False, "lint_findings": 0,
             "lint_high": 0, "recall_gap": False},
        ]
        journal = tmp_path / "v2.jsonl"
        journal.write_text(
            "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
        )
        folded = fold_fuzz_journal(journal)
        assert sorted(folded) == [0, 1]
        assert folded[0].ok and folded[0].lint_findings == 0
        assert not folded[1].ok and folded[1].check == "semantic"
        assert folded[1].mismatch == "step 0: RIBs diverged"
        resumed = run_fuzz(
            FuzzConfig(
                fuzz_seed=0, iterations=3, corpus_dir=tmp_path / "corpus"
            ),
            journal_path=journal,
            resume=True,
        )
        assert resumed.resumed == 2
        assert [result.index for result in resumed.results] == [0, 1, 2]
        assert resumed.results[2].ok

    def test_worker_count_never_changes_the_outcome(self, tmp_path):
        """Same --fuzz-seed ⇒ identical folded results and identical
        shrunk repro bytes at 1 and 4 workers (scenario derivation is a
        pure function of (seed, index) and corpus files are content-
        addressed and written by the parent only)."""
        outcomes = {}
        for workers in (1, 4):
            journal = tmp_path / f"fuzz-{workers}.jsonl"
            corpus = tmp_path / f"corpus-{workers}"
            summary = run_fuzz(
                FuzzConfig(
                    fuzz_seed=PLANTED_SEED,
                    iterations=PLANTED_ITERATIONS,
                    workers=workers,
                    corpus_dir=corpus,
                    planted=("legacy-tiebreak",),
                ),
                journal_path=journal,
                resume=False,
            )
            folded = fold_fuzz_journal(journal)
            outcomes[workers] = (
                {index: result for index, result in folded.items()},
                {
                    path.name: path.read_bytes()
                    for path in sorted(corpus.glob("*.json"))
                },
                [written.name for written in summary.corpus_written],
            )
        assert outcomes[1] == outcomes[4]
        _folded, corpus_bytes, _written = outcomes[1]
        assert corpus_bytes  # the planted bug produced a repro
