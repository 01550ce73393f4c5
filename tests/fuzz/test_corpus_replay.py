"""Replay every checked-in fuzz corpus file as a differential test.

Each file under ``tests/fuzz_corpus/`` is a minimal scenario the fuzzer
once shrank from a real divergence.  Replaying re-runs the comparison
from scratch under the recorded toggle combinations, so a fixed bug
that regresses makes its corpus file fail here — forever, under tier 1.
"""

from pathlib import Path

import pytest

from repro.fuzz.corpus import corpus_files, load_repro, replay_record
from repro.fuzz.harness import lint_scenario
from repro.fuzz.scenarios import FuzzScenario

CORPUS_DIR = Path(__file__).resolve().parent.parent / "fuzz_corpus"

FILES = corpus_files(CORPUS_DIR)


def test_corpus_is_not_empty():
    """At least one shrunk repro is checked in (the tie-break bugs this
    harness was born finding)."""
    assert FILES


@pytest.mark.parametrize(
    "path", FILES, ids=[path.name for path in FILES]
)
def test_corpus_file_replays_green(path):
    record = load_repro(path)
    mismatch = replay_record(record)
    assert mismatch is None, (
        f"{path.name} diverges again — the bug it captured is back "
        f"(or a new one landed on the same scenario): {mismatch}"
    )


@pytest.mark.parametrize(
    "path", FILES, ids=[path.name for path in FILES]
)
def test_corpus_file_is_well_formed(path):
    record = load_repro(path)
    assert record["kind"] == "fuzz_repro"
    assert record["check"] in ("semantic", "memo", "crash")
    assert record["mismatch"]  # what the fuzzer saw at capture time
    assert set(record["combo"]) == set(record["baseline"])


@pytest.mark.parametrize(
    "path", FILES, ids=[path.name for path in FILES]
)
def test_corpus_file_lint_is_deterministic(path):
    """Corpus hygiene: replaying a corpus entry also runs the static
    analyzer over the scenario's final edited configs, and two
    independent runs must produce the identical finding set — ordering,
    serialization, and rendered text alike.  A rule whose output
    depends on dict iteration order or cached state fails here."""
    scenario = FuzzScenario.from_dict(load_repro(path)["scenario"])
    first = lint_scenario(scenario)
    second = lint_scenario(scenario)
    assert first.to_dict() == second.to_dict()
    assert first.render_text() == second.render_text()
    assert [f.sort_key() for f in first] == [f.sort_key() for f in second]
