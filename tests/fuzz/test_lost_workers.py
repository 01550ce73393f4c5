"""Fuzz indices whose worker dies or hangs are findings, not skips.

An index whose pooled worker is SIGKILLed, or yields no result within
``FUZZ_DEADLINE_S``, is journaled as an ``ok=False`` row with check
``"killed"`` or ``"hang"``; the other indices still run, ``repro fuzz``
exits 1 as for a mismatch, and ``--resume`` re-runs none of them.
"""

import os
import signal
import time

import pytest

import repro.fuzz.harness as harness_module
from repro.cli import main
from repro.fuzz import reference
from repro.fuzz.harness import fold_fuzz_journal
from repro.fuzz.scenarios import scenario_at

DEADLINE_S = 5.0
# scenario_at(0, 0) is the only one of the first two indices with eight
# routers, so the doomed reference fires for index 0 alone.
DOOMED_ROUTERS = 8


@pytest.mark.parametrize(
    "fate, check, detail",
    [
        ("hang", "hang", f"index 0: no result within {DEADLINE_S:g}s"),
        (
            "kill",
            "killed",
            f"index 0: worker died (signal SIGKILL) before the "
            f"{DEADLINE_S:g}s deadline",
        ),
    ],
)
def test_lost_index_is_a_finding_that_resume_keeps(
    tmp_path, monkeypatch, capsys, fate, check, detail
):
    assert scenario_at(0, 0).size == DOOMED_ROUTERS
    assert scenario_at(0, 1).size != DOOMED_ROUTERS
    real = reference.simulate

    def doomed(configs):
        if len(configs) == DOOMED_ROUTERS:
            if fate == "hang":
                time.sleep(600)
            os.kill(os.getpid(), signal.SIGKILL)
        return real(configs)

    monkeypatch.setattr(reference, "simulate", doomed)
    monkeypatch.setattr(harness_module, "FUZZ_DEADLINE_S", DEADLINE_S)
    journal = tmp_path / "fuzz.jsonl"
    flags = [
        "fuzz", "--iterations", "2", "--workers", "2",
        "--corpus", str(tmp_path / "corpus"),
    ]
    assert main([*flags, "--journal", str(journal)]) == 1
    assert "FAIL" in capsys.readouterr().out

    folded = fold_fuzz_journal(journal)
    lost, clean = folded[0], folded[1]
    assert (lost.ok, lost.check, lost.mismatch) == (False, check, detail)
    assert lost.key == scenario_at(0, 0).key()
    assert lost.error is None and lost.repro is None
    assert clean.ok and clean.check is None

    journaled = journal.read_text()
    assert main([*flags, "--resume", str(journal)]) == 1
    assert journal.read_text() == journaled  # nothing re-ran
    assert not (tmp_path / "corpus").exists()
