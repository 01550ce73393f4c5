"""Offline journal analytics: ``repro campaign --report``.

A report renders a summary from an existing journal without executing
anything, and — because v2 journal headers carry the grid's keys in
grid order — its JSON/CSV artifacts are byte-identical to the live
run's.
"""

import json

import pytest

from repro.cli import main
from repro.experiments.campaign import (
    build_grid,
    run_campaign,
    service_journals,
    summary_from_journal,
    summary_from_journals,
)

GRID_ARGS = dict(families=["chain", "star"], sizes=[4], seeds=2)


def _grid():
    return build_grid(**GRID_ARGS)


def _artifacts(summary, tmp_path, stem):
    json_path = summary.write_json(tmp_path / f"{stem}.json")
    csv_path = summary.write_csv(tmp_path / f"{stem}.csv")
    return json_path.read_bytes(), csv_path.read_bytes()


@pytest.fixture(scope="module")
def live(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("live")
    journal = tmp_path / "live.jsonl"
    summary = run_campaign(_grid(), workers=1, journal_path=journal)
    return journal, _artifacts(summary, tmp_path, "live"), summary


class TestSummaryFromJournal:
    def test_round_trips_the_live_summary(self, live, tmp_path):
        journal, artifacts, summary = live
        report = summary_from_journal(journal)
        assert report.rows == summary.rows
        assert report.total == summary.total
        assert not report.incomplete
        assert _artifacts(report, tmp_path, "report") == artifacts

    def test_parallel_journal_reports_in_grid_order(self, live, tmp_path):
        """Completion order in the journal body must not leak through."""
        _journal, artifacts, _summary = live
        journal = tmp_path / "par.jsonl"
        run_campaign(_grid(), workers=4, journal_path=journal)
        report = summary_from_journal(journal)
        assert _artifacts(report, tmp_path, "par_report") == artifacts

    def test_carries_cache_and_sim_accounting(self, live):
        journal, _artifacts_, summary = live
        report = summary_from_journal(journal)
        assert (report.cache_hits, report.cache_misses) == (
            summary.cache_hits, summary.cache_misses,
        )
        assert report.sim_full_runs == summary.sim_full_runs
        assert report.sim_incremental_runs == summary.sim_incremental_runs
        assert report.resumed == len(report.rows)
        assert report.workers == 0  # nothing executed

    def test_partial_journal_reports_incomplete(self, tmp_path):
        journal = tmp_path / "partial.jsonl"
        run_campaign(_grid(), workers=1, journal_path=journal, limit=2)
        report = summary_from_journal(journal)
        assert len(report.rows) == 2
        assert report.total == len(_grid())
        assert report.incomplete

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            summary_from_journal(tmp_path / "nope.jsonl")

    def test_resume_under_different_grid_reports_the_new_grid(self, tmp_path):
        """Resuming a journal with a different grid appends a fresh
        header, so the offline report reflects the grid that now owns
        the journal instead of silently dropping its rows."""
        journal = tmp_path / "switch.jsonl"
        run_campaign(build_grid(["star"], [4], seeds=1), journal_path=journal)
        live = run_campaign(
            _grid(), journal_path=journal, resume=True
        )
        assert not live.incomplete
        report = summary_from_journal(journal)
        assert report.rows == live.rows
        assert report.total == len(_grid())
        assert not report.incomplete

    def test_legacy_journal_without_keys_falls_back(self, live, tmp_path):
        """v1 journals (no header keys) report in completion order."""
        source, _artifacts_, summary = live
        legacy = tmp_path / "legacy.jsonl"
        lines = source.read_text().splitlines()
        header = json.loads(lines[0])
        del header["keys"]
        header["version"] = 1
        legacy.write_text(
            "\n".join([json.dumps(header, sort_keys=True)] + lines[1:]) + "\n"
        )
        report = summary_from_journal(legacy)
        assert sorted(map(repr, report.rows)) == sorted(map(repr, summary.rows))
        assert report.total == len(report.rows)


class TestReportCli:
    ARGS = [
        "campaign", "--families", "chain,star", "--sizes", "4", "--seeds", "2",
    ]

    def test_report_matches_live_artifacts(self, live, tmp_path, capsys):
        journal, artifacts, _summary = live
        out_json = tmp_path / "report.json"
        out_csv = tmp_path / "report.csv"
        code = main([
            "campaign", "--report", str(journal),
            "--json", str(out_json), "--csv", str(out_csv),
        ])
        assert code == 0
        assert (out_json.read_bytes(), out_csv.read_bytes()) == artifacts
        output = capsys.readouterr().out
        assert "campaign:" in output
        assert "resumed from journal" in output

    def test_report_runs_nothing(self, live, tmp_path, capsys):
        journal, _artifacts_, _summary = live
        before = journal.read_text()
        code = main(["campaign", "--report", str(journal), "--json", "-"])
        assert code == 0
        assert journal.read_text() == before

    def test_report_of_partial_journal_hints_resume(self, tmp_path, capsys):
        journal = tmp_path / "partial.jsonl"
        run_campaign(_grid(), workers=1, journal_path=journal, limit=1)
        code = main(["campaign", "--report", str(journal), "--json", "-"])
        assert code == 0
        output = capsys.readouterr().out
        assert "--resume" in output

    def test_report_missing_journal_errors(self, tmp_path, capsys):
        code = main([
            "campaign", "--report", str(tmp_path / "nope.jsonl"), "--json", "-",
        ])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_report_conflicts_with_resume(self, tmp_path, capsys):
        code = main([
            "campaign", "--report", "a.jsonl", "--resume", "a.jsonl",
        ])
        assert code == 2
        assert "cannot be combined" in capsys.readouterr().err

    def test_report_rejects_execution_only_flags(self, capsys):
        code = main([
            "campaign", "--report", "a.jsonl",
            "--workers", "4", "--limit", "2", "--journal", "b.jsonl",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "--workers" in err and "--limit" in err and "--journal" in err

    def test_report_rejects_grid_flags(self, capsys):
        code = main([
            "campaign", "--report", "a.jsonl",
            "--families", "mesh", "--sizes", "20",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "--families" in err and "--sizes" in err


class TestMultiJournalMerge:
    """--report accepts several journals and merges them into one
    cross-campaign summary: duplicate keys last-write-wins, output
    deterministic."""

    @pytest.fixture(scope="class")
    def journals(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("merge")
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        run_campaign(build_grid(["chain"], [4], seeds=2), journal_path=first)
        # second campaign overlaps on one scenario (chain:4:1) and adds
        # a new family
        run_campaign(
            build_grid(["chain"], [4], seeds=2)[1:]
            + build_grid(["star"], [4], seeds=1),
            journal_path=second,
        )
        return tmp_path, first, second

    def test_merge_is_a_union_with_last_write_wins(self, journals):
        _tmp, first, second = journals
        merged = summary_from_journals([first, second])
        keys = [
            (row.family, row.size, row.seed) for row in merged.rows
        ]
        assert keys == [("chain", 4, 0), ("chain", 4, 1), ("star", 4, 0)]
        assert merged.total == 3
        assert not merged.incomplete
        # the duplicated scenario keeps the later journal's record
        duplicated = merged.rows[1]
        later = summary_from_journal(second).rows[0]
        assert duplicated == later

    def test_merge_is_deterministic(self, journals, tmp_path):
        _tmp, first, second = journals
        once = summary_from_journals([first, second])
        twice = summary_from_journals([first, second])
        a = once.write_json(tmp_path / "a.json").read_bytes()
        b = twice.write_json(tmp_path / "b.json").read_bytes()
        assert a == b

    def test_argument_order_controls_duplicates_and_order(self, journals):
        _tmp, first, second = journals
        forward = summary_from_journals([first, second])
        backward = summary_from_journals([second, first])
        assert {((r.family, r.seed)) for r in forward.rows} == {
            ((r.family, r.seed)) for r in backward.rows
        }
        # reversed argument order reorders rows (first appearance wins)
        assert [r.family for r in backward.rows] == ["chain", "star", "chain"]

    def test_single_journal_path_unchanged(self, journals):
        _tmp, first, _second = journals
        assert summary_from_journals([first]).rows == summary_from_journal(
            first
        ).rows

    def test_missing_journal_in_list_raises(self, journals, tmp_path):
        _tmp, first, _second = journals
        with pytest.raises(ValueError, match="does not exist"):
            summary_from_journals([first, tmp_path / "nope.jsonl"])
        with pytest.raises(ValueError, match="no journals"):
            summary_from_journals([])

    def test_cli_merges_repeated_report_flags(self, journals, tmp_path, capsys):
        _tmp, first, second = journals
        out_json = tmp_path / "merged.json"
        code = main([
            "campaign", "--report", str(first), "--report", str(second),
            "--json", str(out_json),
        ])
        assert code == 0
        data = json.loads(out_json.read_text())
        assert data["scenarios"] == 3
        assert set(data["families"]) == {"chain", "star"}

    def test_cli_report_conflicts_with_roles_axis(self, capsys):
        code = main([
            "campaign", "--report", "a.jsonl", "--roles", "c2i2h1",
        ])
        assert code == 2
        assert "--roles" in capsys.readouterr().err


class TestServiceDirectoryExpansion:
    """A --report argument may be a campaign-service directory: it
    expands to the manifest (grid order) plus every shard journal."""

    @pytest.fixture(scope="class")
    def campaign_dir(self, tmp_path_factory):
        """A hand-built service layout: the grid's header in
        manifest.jsonl, the result rows split across two shards."""

        tmp_path = tmp_path_factory.mktemp("svc")
        source = tmp_path / "source.jsonl"
        run_campaign(_grid(), workers=1, journal_path=source)
        lines = source.read_text().splitlines()
        directory = tmp_path / "c0001"
        directory.mkdir()
        (directory / "manifest.jsonl").write_text(lines[0] + "\n")
        body = lines[1:]
        # interleave rows across shards so neither holds grid order
        (directory / "shard-00.jsonl").write_text(
            "\n".join(body[1::2]) + "\n"
        )
        (directory / "shard-01.jsonl").write_text(
            "\n".join(body[0::2]) + "\n"
        )
        return tmp_path, directory, source

    def test_expansion_lists_manifest_first(self, campaign_dir):
        _tmp, directory, _source = campaign_dir
        journals = service_journals(directory)
        assert journals[0].name == "manifest.jsonl"
        assert [p.name for p in journals[1:]] == [
            "shard-00.jsonl", "shard-01.jsonl",
        ]

    def test_directory_report_matches_single_journal(
        self, campaign_dir, tmp_path
    ):
        _tmp, directory, source = campaign_dir
        merged = summary_from_journals([directory])
        single = summary_from_journal(source)
        assert _artifacts(merged, tmp_path, "dir") == _artifacts(
            single, tmp_path, "single"
        )

    def test_cli_report_accepts_the_directory(
        self, campaign_dir, tmp_path, capsys
    ):
        _tmp, directory, source = campaign_dir
        out_a = tmp_path / "dir.json"
        out_b = tmp_path / "file.json"
        assert main([
            "campaign", "--report", str(directory), "--json", str(out_a),
        ]) == 0
        assert main([
            "campaign", "--report", str(source), "--json", str(out_b),
        ]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_directory_without_manifest_is_rejected(self, tmp_path):
        (tmp_path / "plain").mkdir()
        with pytest.raises(ValueError, match="manifest.jsonl"):
            service_journals(tmp_path / "plain")
        with pytest.raises(ValueError, match="manifest.jsonl"):
            summary_from_journals([tmp_path / "plain"])


class TestWorkerToggles:
    def test_initializer_propagates_optimization_toggles(self):
        """Pool workers must inherit the parent's toggles even under
        spawn/forkserver start methods, where module globals reset."""
        from repro.batfish.bgpsim import incremental_simulation_enabled
        from repro.core import toggles
        from repro.experiments.campaign import _init_worker
        from repro.symbolic.memo import memoization_enabled

        all_off = {"incremental_simulation": False, "memoization": False}
        try:
            _init_worker(all_off)
            assert not memoization_enabled()
            assert not incremental_simulation_enabled()
        finally:
            _init_worker(toggles.DEFAULTS)
        assert memoization_enabled()
        assert incremental_simulation_enabled()

    def test_initializer_covers_every_registered_toggle(self):
        """The snapshot the executor ships must name every toggle in
        the registry — a new toggle cannot silently skip propagation."""
        from repro.core import toggles

        assert set(toggles.snapshot()) == set(toggles.DEFAULTS)
