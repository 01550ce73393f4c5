"""One result per distinct experiment run inside a sharing scope.

``repro tables`` prints a dozen sections, and several report on the same
deterministic run: the seed-0 translation backs Tables 1 and 2, the
translation leverage, the VPP ablation, Figure 3 and the seed sweep.
Inside :func:`shared_runs`, :func:`run_once` runs each distinct
(experiment, arguments) once and hands every later caller that result;
outside a scope it simply calls the experiment.  The experiment
functions themselves stay unmemoized, so every other caller does the
real work.  The scope is a context variable, so it covers only the
thread (or task) that entered it.
"""

from __future__ import annotations

import contextlib
import contextvars
import inspect
from typing import Any, Callable, Dict, Hashable, Iterator, Optional, TypeVar

__all__ = ["run_once", "shared_runs"]

T = TypeVar("T")

_SHARED: contextvars.ContextVar[Optional[Dict[Hashable, Any]]] = (
    contextvars.ContextVar("shared_runs", default=None)
)


@contextlib.contextmanager
def shared_runs() -> Iterator[None]:
    """Share experiment results among the :func:`run_once` calls made
    inside the block; they are dropped when it exits."""
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def run_once(experiment: Callable[..., T], **kwargs: Any) -> T:
    """``experiment(**kwargs)``, or the result of an earlier identical
    call in the enclosing :func:`shared_runs` scope.

    Calls are identical when they bind the same (hashable) argument
    values, defaults included, so ``seed=0`` and ``seed=0,
    profile=None`` share one run.  Callers must treat a shared result
    as read-only.
    """
    shared = _SHARED.get()
    if shared is None:
        return experiment(**kwargs)
    bound = inspect.signature(experiment).bind(**kwargs)
    bound.apply_defaults()
    key = (experiment, tuple(bound.arguments.items()))
    if key not in shared:
        shared[key] = experiment(**kwargs)
    return shared[key]
