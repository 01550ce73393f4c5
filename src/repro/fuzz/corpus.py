"""The shrunk-repro corpus: serialize, load, and replay.

Every mismatch or crash the fuzzer finds is shrunk and serialized as
one JSON file under ``tests/fuzz_corpus/``.  A corpus file is
self-contained: the minimal scenario, the check that failed, and the
divergence observed at capture time (whose text names the diverging
path).  ``replay_record`` re-runs the whole comparison — reference,
full path, incremental path — on the scenario from scratch, so each
checked-in file is a permanent tier-1 differential test: it fails
again the moment the bug it captured is reintroduced.

Records written while the simulator still had optimization toggles
also carry ``combo`` and ``baseline`` keys; replay ignores them.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import List, Optional

from .oracle import compare
from .scenarios import FuzzScenario

__all__ = [
    "CORPUS_VERSION",
    "corpus_files",
    "load_repro",
    "make_record",
    "replay_file",
    "replay_record",
    "repro_filename",
    "write_repro",
]

CORPUS_VERSION = 1


def make_record(
    scenario: FuzzScenario,
    kind: str,
    mismatch: str,
    fuzz_seed: Optional[int] = None,
    index: Optional[int] = None,
) -> dict:
    """One corpus record.  ``kind`` is ``"semantic"`` (a production
    path vs the reference), ``"exports"`` (a production path's exports
    to an external attachment vs the reference's), ``"memo"``
    (full-path vs incremental-path memo traffic) or ``"crash"`` (one
    side raised)."""
    record = {
        "kind": "fuzz_repro",
        "version": CORPUS_VERSION,
        "check": kind,
        "scenario": scenario.to_dict(),
        "mismatch": mismatch,
    }
    if fuzz_seed is not None:
        record["fuzz_seed"] = fuzz_seed
    if index is not None:
        record["index"] = index
    return record


def repro_filename(record: dict) -> str:
    """A deterministic, content-addressed corpus filename."""
    material = json.dumps(
        {"scenario": record["scenario"], "check": record["check"]},
        sort_keys=True,
    )
    digest = hashlib.sha256(material.encode("utf-8")).hexdigest()[:12]
    scenario = FuzzScenario.from_dict(record["scenario"])
    return f"fuzz-{scenario.family}-{scenario.size}-{digest}.json"


def write_repro(directory: "Path | str", record: dict) -> Path:
    """Serialize a record into the corpus directory (idempotent: the
    content-addressed name means re-finding the same bug rewrites the
    same file byte for byte)."""
    target_dir = Path(directory)
    target_dir.mkdir(parents=True, exist_ok=True)
    target = target_dir / repro_filename(record)
    target.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return target


def load_repro(path: "Path | str") -> dict:
    record = json.loads(Path(path).read_text())
    if record.get("kind") != "fuzz_repro":
        raise ValueError(f"{path} is not a fuzz repro file")
    return record


def replay_record(record: dict) -> Optional[str]:
    """Re-run the whole comparison on a corpus record's scenario.

    Returns ``None`` when every path agrees (the bug stays fixed) or
    the first divergence (or crash) description when they do not.
    """
    found = compare(FuzzScenario.from_dict(record["scenario"]))
    return None if found is None else found[1]


def replay_file(path: "Path | str") -> Optional[str]:
    return replay_record(load_repro(path))


def corpus_files(directory: "Path | str") -> List[Path]:
    """Every corpus file, sorted for deterministic replay order."""
    target = Path(directory)
    if not target.is_dir():
        return []
    return sorted(target.glob("*.json"))
