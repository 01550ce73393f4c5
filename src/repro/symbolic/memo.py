"""Process-local memo caches for the symbolic analysis hot path.

Large campaign grids re-verify the same route-map *shapes* thousands of
times: every scenario of a family × size cell builds the same reference
policies, and within one scenario the synthesis loop re-checks every
router's invariants after each correction round even though most drafts
did not change.  The caches here let those repeated questions hit a
dictionary instead of re-enumerating a candidate-route universe.

Each cache is a :class:`MemoCache`: a FIFO-bounded mapping whose hits
and misses are :mod:`repro.obs` registry counters
(``memo.<name>.hits``/``.misses``), so they travel in every registry
snapshot and delta; :func:`memo_traffic` reads them back per cache from
any such dict.  Every cache is also listed in a module-level registry
so tests can reset everything (``reset_caches``).  Memoization is
always on: a cold run is one that starts after ``reset_caches()``,
which is how callers that need the unmemoized answer (the fuzz
reference, the cached-equals-uncached tests) get it.

Caches are process-local by design: campaign worker processes each grow
their own, which keeps the engine fork-safe with zero coordination.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Mapping, Tuple

from ..obs import counter

__all__ = [
    "MemoCache",
    "memo_totals",
    "memo_traffic",
    "reset_caches",
]

_MISS = object()

_REGISTRY: List["MemoCache"] = []


class MemoCache:
    """A FIFO-bounded dict with hit/miss counters.

    ``lookup`` returns ``(hit, value)``; ``store`` inserts, evicting the
    oldest entry past ``max_entries``.
    """

    def __init__(self, name: str, max_entries: int = 4096) -> None:
        self.name = name
        self.max_entries = max_entries
        # Hit/miss accounting lives in the process-wide metrics registry
        # under ``memo.<name>.*`` so campaign workers ship it home with
        # every other counter.  A new instance starts its series at zero
        # (tests recreate same-named caches; stale values would lie).
        self._hits = counter(f"memo.{name}.hits")
        self._misses = counter(f"memo.{name}.misses")
        self._hits.reset()
        self._misses.reset()
        self._entries: Dict[Hashable, Any] = {}
        _REGISTRY.append(self)

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    def lookup(self, key: Hashable) -> Tuple[bool, Any]:
        value = self._entries.get(key, _MISS)
        if value is _MISS:
            self._misses.inc()
            return False, None
        self._hits.inc()
        return True, value

    def store(self, key: Hashable, value: Any) -> None:
        if key not in self._entries and len(self._entries) >= self.max_entries:
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = value

    def clear(self) -> None:
        self._entries.clear()
        self._hits.reset()
        self._misses.reset()

    def __len__(self) -> int:
        return len(self._entries)


def reset_caches() -> None:
    """Drop every entry and zero every counter."""
    for cache in _REGISTRY:
        cache.clear()


def memo_traffic(metrics: Mapping[str, float]) -> Dict[str, Tuple[int, int]]:
    """Per-cache ``{name: (hits, misses)}``, sorted by name, from a flat
    registry dict (a snapshot, a delta, or a merge of deltas).

    The one reader of the ``memo.<name>.hits``/``.misses`` naming.
    """
    caches: Dict[str, Dict[str, int]] = {}
    for series, value in metrics.items():
        if not series.startswith("memo."):
            continue
        if series.endswith(".hits"):
            caches.setdefault(series[5:-5], {})["hits"] = int(value)
        elif series.endswith(".misses"):
            caches.setdefault(series[5:-7], {})["misses"] = int(value)
    return {
        name: (counts.get("hits", 0), counts.get("misses", 0))
        for name, counts in sorted(caches.items())
    }


def memo_totals(metrics: Mapping[str, float]) -> Tuple[int, int]:
    """``(hits, misses)`` summed over every cache in ``metrics``."""
    traffic = memo_traffic(metrics).values()
    return sum(hits for hits, _ in traffic), sum(misses for _, misses in traffic)
