"""One registry for every process-global A/B toggle.

Two optimizations can be switched off at run time:
``set_incremental_simulation`` (warm incremental BGP re-simulation, in
:mod:`repro.batfish.bgpsim`) and ``set_memoization`` (the symbolic
verification memo, in :mod:`repro.symbolic.memo`).  Each is a cheap,
fork-friendly module global, but globals leak: a test or fuzz
iteration that flips one and raises leaves every later test running
under a configuration nobody asked for.

This module gives that state one name.  Every toggle is registered
here with its getter, setter, and default, so callers can snapshot the
whole configuration, apply a saved snapshot, or run a block under an
override and be *guaranteed* the previous configuration comes back —
the fuzz harness wraps every toggle-combination run in
:func:`scoped`, campaign workers are initialized from a parent
:func:`snapshot`, and the test suite's autouse hygiene fixture asserts
:func:`deviations` is empty after every test.

Imports of the toggle-owning modules are deferred until first use so
this module can live in :mod:`repro.core` without creating an import
cycle (``repro.experiments.campaign`` imports ``repro.core``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "DEFAULTS",
    "apply",
    "deviations",
    "preserved",
    "restore_defaults",
    "scoped",
    "snapshot",
    "toggle_names",
]


@dataclass(frozen=True)
class _ToggleSpec:
    get: Callable[[], Any]
    set: Callable[[Any], None]
    default: Any


# Every toggle's documented resting value.  Kept as a plain literal
# mapping (not derived from the getters) so the defaults are an
# explicit contract: if a module ever ships with a different initial
# value, the hygiene fixture fails loudly instead of blessing it.
DEFAULTS: Dict[str, Any] = {
    "incremental_simulation": True,
    "memoization": True,
}

_SPECS: Optional[Dict[str, _ToggleSpec]] = None


def _specs() -> Dict[str, _ToggleSpec]:
    global _SPECS
    if _SPECS is None:
        from ..batfish import bgpsim
        from ..symbolic import memo

        _SPECS = {
            "incremental_simulation": _ToggleSpec(
                bgpsim.incremental_simulation_enabled,
                bgpsim.set_incremental_simulation,
                True,
            ),
            "memoization": _ToggleSpec(
                memo.memoization_enabled, memo.set_memoization, True
            ),
        }
        assert set(_SPECS) == set(DEFAULTS)
        for name, spec in _SPECS.items():
            assert spec.default == DEFAULTS[name], name
    return _SPECS


def toggle_names() -> List[str]:
    """Every registered toggle name, in registry order."""
    return list(DEFAULTS)


def snapshot() -> Dict[str, Any]:
    """The current value of every registered toggle."""
    return {name: spec.get() for name, spec in _specs().items()}


def apply(values: Dict[str, Any]) -> None:
    """Set the named toggles (a partial mapping is fine).

    Unknown names raise ``ValueError`` before anything is changed, so a
    typo cannot half-apply a configuration.
    """
    specs = _specs()
    unknown = sorted(set(values) - set(specs))
    if unknown:
        known = ", ".join(specs)
        raise ValueError(f"unknown toggle(s) {unknown} (known: {known})")
    for name, value in values.items():
        specs[name].set(value)


def restore_defaults() -> None:
    """Put every toggle back to its documented default."""
    apply(dict(DEFAULTS))


def deviations() -> List[Tuple[str, Any, Any]]:
    """``(name, current, default)`` for every toggle not at its default.

    Empty means the process is in the documented resting
    configuration; the test suite asserts this after every test.
    """
    return [
        (name, spec.get(), spec.default)
        for name, spec in _specs().items()
        if spec.get() != spec.default
    ]


@contextmanager
def preserved() -> Iterator[Dict[str, Any]]:
    """Snapshot every toggle on entry and restore it on exit.

    Restoration happens even when the body raises — the guarantee that
    makes flipping toggles safe inside loops and tests.
    """
    saved = snapshot()
    try:
        yield saved
    finally:
        apply(saved)


@contextmanager
def scoped(**overrides: Any) -> Iterator[Dict[str, Any]]:
    """Run a block under the given toggle overrides, then restore.

    ``with toggles.scoped(incremental_simulation=False): ...``
    """
    with preserved() as saved:
        apply(overrides)
        yield saved
