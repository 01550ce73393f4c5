"""Outside-in layer timing for the traced benchmark runs.

The tracer wraps the public call sites of each VPP-loop layer from the
outside: module-level names the orchestrator binds, and methods on the
layer classes.  Nothing under ``src/`` knows it is being measured.

Every wrapped call is a span.  A span's *self* time is its duration
minus the durations of the spans it directly contains, so a full
``converge`` that ``resimulate`` falls back to is charged to
``batfish.converge``, not to ``batfish.resimulate``, and BGP time inside
the global check is not charged to ``lightyear.global``.

Spans are written into the program's own metrics registry as counters
(``perfbench.<layer>.calls`` / ``.self_s``).  In-process workloads read
them back as registry deltas; campaign workers ship them home inside
each journal row's ``metrics``, exactly like the program's own counters.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Any, Callable, Dict, List, Tuple

from repro.obs import counter

#: (layer, module, attribute) for every wrapped call site.  The module
#: functions are the names ``repro.core.orchestrator`` binds, so the
#: orchestrator's calls (and the edit workload's calls made through the
#: same bindings) go through the wrappers.
CALL_SITES: Tuple[Tuple[str, str, str], ...] = (
    ("core.orchestrator", "repro.core.orchestrator", "SynthesisOrchestrator.run"),
    ("core.orchestrator", "repro.core.orchestrator", "TranslationOrchestrator.run"),
    ("cisco.parse", "repro.core.orchestrator", "parse_cisco"),
    ("juniper.parse", "repro.core.orchestrator", "parse_juniper"),
    ("topology.verify", "repro.core.orchestrator", "verify_topology"),
    ("lightyear.verify", "repro.core.orchestrator", "verify_invariants"),
    ("campion.compare", "repro.core.orchestrator", "compare_configs"),
    ("lightyear.global", "repro.core.orchestrator", "check_global_no_transit"),
    ("llm.send", "repro.llm.simulated", "SimulatedGPT4.send"),
    ("llm.current_config", "repro.llm.faults", "DraftState.current_config"),
    ("core.compose", "repro.core.composer", "Composer.compose"),
    ("batfish.converge", "repro.batfish.bgpsim", "SimulationState.converge"),
    ("batfish.resimulate", "repro.batfish.bgpsim", "SimulationState.resimulate"),
)

#: Outermost spans whose time the named layers should account for: the
#: orchestrators' ``run`` and the edit workload's own op span.
ROOTS = frozenset({"core.orchestrator", "edit.op"})

PREFIX = "perfbench."


class Tracer:
    """Installs span wrappers on every call site and removes them again."""

    def __init__(self) -> None:
        # One frame per open span: the summed duration of its children.
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._seen_texts: set = set()
        self._distinct = counter(PREFIX + "cisco.parse.distinct")
        self._fallbacks = counter(PREFIX + "batfish.resimulate.fallbacks")
        self._root_total = counter(PREFIX + "root.total_s")
        self._root_self = counter(PREFIX + "root.self_s")

    def install(self) -> None:
        for layer, module_name, attribute in CALL_SITES:
            owner: Any = importlib.import_module(module_name)
            *path, name = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[name]
            self._patches.append((owner, name, original))
            setattr(owner, name, self.wrap(layer, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def wrap(self, layer: str, function: Callable) -> Callable:
        calls = counter(PREFIX + layer + ".calls")
        self_s = counter(PREFIX + layer + ".self_s")
        stack = self._stack
        is_root = layer in ROOTS

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if layer == "cisco.parse":
                self._note_text(args[0] if args else kwargs["text"])
            frame = [0.0]
            outermost = not stack
            stack.append(frame)
            started = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                calls.inc()
                self_s.inc(elapsed - frame[0])
                if is_root and outermost:
                    self._root_total.inc(elapsed)
                    self._root_self.inc(elapsed - frame[0])
            if layer == "batfish.resimulate" and result.mode == "full":
                self._fallbacks.inc()
            return result

        return traced

    def _note_text(self, text: str) -> None:
        if text not in self._seen_texts:
            self._seen_texts.add(text)
            self._distinct.inc()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    metrics: Dict[str, float],
    ops: int,
    prompts: Tuple[int, int],
    campaign: Dict[str, float],
    overhead_ratio: float,
    scale: float,
) -> Dict[str, float]:
    """Per-layer figures from a merged registry delta over ``ops`` ops.

    Times are self milliseconds per op, multiplied by ``scale`` to bring
    them to reference machine speed; ``calls`` are calls per op.  Layers
    a workload does not run read 0.
    """

    def get(name: str) -> float:
        return metrics.get(name, 0.0)

    def per_op(value: float) -> float:
        return _ratio(value, ops)

    def self_ms(layer: str) -> float:
        return per_op(1e3 * scale * get(PREFIX + layer + ".self_s"))

    def calls(layer: str) -> float:
        return per_op(get(PREFIX + layer + ".calls"))

    def hit_ratio(cache: str) -> float:
        hits = get(f"memo.{cache}.hits")
        return _ratio(hits, hits + get(f"memo.{cache}.misses"))

    resimulations = get(PREFIX + "batfish.resimulate.calls")
    return {
        "llm.send.calls": calls("llm.send"),
        "llm.send.self_ms": self_ms("llm.send"),
        "llm.current_config.ms": self_ms("llm.current_config"),
        "cisco.parse.calls": calls("cisco.parse"),
        "cisco.parse.ms": self_ms("cisco.parse"),
        "cisco.parse.distinct_ratio": _ratio(
            get(PREFIX + "cisco.parse.distinct"),
            get(PREFIX + "cisco.parse.calls"),
        ),
        "juniper.parse.calls": calls("juniper.parse"),
        "juniper.parse.ms": self_ms("juniper.parse"),
        "campion.compare.calls": calls("campion.compare"),
        "campion.compare.ms": self_ms("campion.compare"),
        "topology.verify.ms": self_ms("topology.verify"),
        "lightyear.verify.calls": calls("lightyear.verify"),
        "lightyear.verify.ms": self_ms("lightyear.verify"),
        "symbolic.universe-policy.hit_ratio": hit_ratio("universe-policy"),
        "symbolic.universe-routes.hit_ratio": hit_ratio("universe-routes"),
        "symbolic.invariant-verdict.hit_ratio": hit_ratio("invariant-verdict"),
        "lightyear.global.self_ms": self_ms("lightyear.global"),
        "batfish.resimulate.calls": calls("batfish.resimulate"),
        "batfish.resimulate.ms": self_ms("batfish.resimulate"),
        "batfish.fallback_ratio": _ratio(
            get(PREFIX + "batfish.resimulate.fallbacks"), resimulations
        ),
        "batfish.converge.calls": calls("batfish.converge"),
        "batfish.converge.ms": self_ms("batfish.converge"),
        "batfish.evaluations": per_op(
            get("sim.full_evaluations") + get("sim.incremental_evaluations")
        ),
        "route.routes_built": per_op(get("route.routes_built")),
        "core.compose.ms": self_ms("core.compose"),
        "analysis.lint.ms": per_op(1e3 * scale * get("phase.lint.total_s")),
        "campaign.pool_overhead_s": campaign.get("pool_overhead_s", 0.0),
        "campaign.worker_busy_ratio": campaign.get("worker_busy_ratio", 0.0),
        "core.orchestrator.self_ms": self_ms("core.orchestrator"),
        "core.prompts.automated": per_op(prompts[0]),
        "core.prompts.human": per_op(prompts[1]),
        "trace.attributed_share": 1.0
        - _ratio(get(PREFIX + "root.self_s"), get(PREFIX + "root.total_s")),
        "trace.overhead_ratio": overhead_ratio,
    }


def fingerprint(
    metrics: Dict[str, float], prompts: Tuple[int, int], scheduling_free: bool
) -> Dict[str, int]:
    """Counts that must repeat exactly for one workload and seed.

    ``scheduling_free`` is False for the campaign, whose simulator and
    candidate-grid counts depend on which worker's warm state a scenario
    lands on; only its loop counts are deterministic there.
    """
    counts = {
        "llm.send.calls": int(metrics.get(PREFIX + "llm.send.calls", 0)),
        "cisco.parse.calls": int(metrics.get(PREFIX + "cisco.parse.calls", 0)),
        "core.prompts.automated": prompts[0],
        "core.prompts.human": prompts[1],
    }
    if scheduling_free:
        counts["batfish.evaluations"] = int(
            metrics.get("sim.full_evaluations", 0)
            + metrics.get("sim.incremental_evaluations", 0)
        )
        counts["route.routes_built"] = int(metrics.get("route.routes_built", 0))
    return counts
