"""Benchmark of the verified-prompt-programming loop, end to end.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-warm --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics with no wrappers
installed.  ``--trace 1`` runs the same ops twice, plain and traced,
and reports the per-layer metrics plus the tracing overhead.  ``all``
runs each workload in a fresh process, because the symbolic memo, the
warm simulation states and route interning are process-global.

Times are reported at reference machine speed: each timed region is
divided by the slow-down a calibration kernel measured around it (see
``calibrate.py``).  The wall-clock figures and the slow-down itself are
reported beside them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it report every figure with its unit and sample count, the known-answer
checks, the deterministic-count fingerprint and the environment.  The
exit code is 1 when any known-answer check fails and 2 when the program
under test cannot be imported.
"""

from __future__ import annotations

import time

from calibrate import slowdown

SETUP_CALIBRATION_RUNS = 9
ENTRY_SLOWDOWN = slowdown(SETUP_CALIBRATION_RUNS)
ENTRY = time.perf_counter()

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
WORKLOADS = ("paper-warm", "fresh-networks", "edit-reverify", "campaign-lint")
SETUP_REPEATS = 5

#: The metric names and units the benchmark reports, defined once.
DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import the program from this checkout's ``src`` afresh.

    Modules of an earlier import are dropped first, so each set-up
    repetition pays for the whole import.  Returns None if the program
    is absent.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in list(sys.modules):
        if name in ("workloads", "layers") or name.split(".")[0] == "repro":
            del sys.modules[name]
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return None
    if SRC not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported repro from outside {SRC}", file=sys.stderr)
        return None
    import workloads

    return workloads


def p50_ms(values: List[float]) -> float:
    return 1e3 * statistics.median(values)


def p90_ms(values: List[float]) -> float:
    return 1e3 * statistics.quantiles(values, n=10, method="inclusive")[8]


def run_pass(workload, seconds: float, rec) -> None:
    """Whole cycles while the next one is expected to fit in ``seconds``."""
    started = time.perf_counter()
    cycle = 0
    while True:
        workload.run_cycle(cycle, rec)
        cycle += 1
        if cycle == 1 and rec.tracer is not None:
            rec.first_cycle = (dict(rec.metrics), tuple(rec.prompts))
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / cycle > seconds:
            break
    rec.cycles = cycle


def peak_rss_mb(include_children: bool) -> float:
    """Peak resident set of this process, plus the largest child's."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else "unknown"


def environment(args: argparse.Namespace) -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "cpu": platform.processor() or platform.machine(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def figure(value: float, unit: str, samples: int) -> Dict[str, object]:
    return {"value": value, "unit": unit, "n": samples}


def rate(rec) -> float:
    return len(rec.op_s) / rec.timed_s


def end_to_end(rec, setup, children: bool) -> Dict[str, dict]:
    """Every end-to-end figure a pass supports, with sample counts."""
    ops = len(rec.op_s)
    setup_s, setup_raw_s = setup
    out = {
        "setup_s": figure(setup_s, "s", SETUP_REPEATS),
        "ops_per_s": figure(rate(rec), "1/s", ops),
        "op_ms.p50": figure(p50_ms(rec.op_s), "ms", ops),
        "peak_rss_mb": figure(peak_rss_mb(children), "MB", 1),
        "fail_ratio": figure(rec.failed / ops, "ratio", ops),
    }
    # A p90 needs at least ten samples beyond it.
    if ops >= 100:
        out["op_ms.p90"] = figure(p90_ms(rec.op_s), "ms", ops)
    for kind, values in sorted(rec.samples.items()):
        if kind.endswith("_ms"):
            out[kind + ".p50"] = figure(p50_ms(values), "ms", len(values))
            if len(values) >= 100:
                out[kind + ".p90"] = figure(p90_ms(values), "ms", len(values))
    if "campaign_s" in rec.samples:
        out["campaign_s"] = figure(
            statistics.median(rec.samples["campaign_s"]),
            "s",
            len(rec.samples["campaign_s"]),
        )
    # The same run in wall-clock terms, and the slow-down between them.
    out["raw.setup_s"] = figure(setup_raw_s, "s", SETUP_REPEATS)
    out["raw.ops_per_s"] = figure(ops / rec.raw_timed_s, "1/s", ops)
    out["machine_slowdown"] = figure(rec.raw_timed_s / rec.timed_s, "ratio", ops)
    return out


def print_figures(title: str, figures: Dict[str, dict]) -> None:
    print(title)
    for name, fig in figures.items():
        print(f"  {name:38s} {fig['value']:14.6f} {fig['unit']:10s} n={fig['n']}")


def run_workload(args: argparse.Namespace) -> int:
    setup_s: List[float] = []
    setup_raw_s: List[float] = []
    started, slow_before = ENTRY, ENTRY_SLOWDOWN
    try:
        # Set-up is imports, input generation, warm-up and baseline, from
        # scratch each time; the last repetition's state is measured.
        for _ in range(SETUP_REPEATS):
            workloads = import_program()
            if workloads is None:
                return 2
            workload = workloads.make_workload(args.workload, args.seed, SCRATCH)
            setup_problems = workload.setup()
            elapsed = time.perf_counter() - started
            slow_after = slowdown(SETUP_CALIBRATION_RUNS)
            setup_raw_s.append(elapsed)
            setup_s.append(elapsed / ((slow_before + slow_after) / 2))
            # The next repetition should not pay for this one's garbage.
            gc.collect()
            started, slow_before = time.perf_counter(), slow_after
        from layers import Tracer, fingerprint, layer_metrics

        report: Dict[str, object] = {
            "environment": environment(args),
            "setup_repeats_s": setup_s,
        }
        setup = (statistics.median(setup_s), statistics.median(setup_raw_s))
        children = not workload.in_process
        if args.trace == 0:
            rec = workloads.Recorder(None)
            run_pass(workload, args.seconds, rec)
            figures = end_to_end(rec, setup, children)
            metrics = {
                metric["name"]: figures[metric["name"]]
                for metric in DEFINITION["end_to_end"]
            }
            recs = [rec]
        else:
            plain = workloads.Recorder(None)
            run_pass(workload, args.seconds / 2, plain)
            tracer = Tracer()
            traced = workloads.Recorder(tracer)
            if workload.in_process:
                tracer.install()
            try:
                run_pass(workload, args.seconds / 2, traced)
            finally:
                tracer.uninstall()
            figures = end_to_end(plain, setup, children)
            campaign = {
                key: statistics.median(traced.samples[key])
                for key in ("pool_overhead_s", "worker_busy_ratio")
                if key in traced.samples
            }
            layers = layer_metrics(
                traced.metrics,
                len(traced.op_s),
                tuple(traced.prompts),
                campaign,
                overhead_ratio=rate(traced) / rate(plain),
                scale=traced.timed_s / traced.raw_timed_s,
            )
            metrics = {
                metric["name"]: figure(
                    layers[metric["name"]], metric["unit"], len(traced.op_s)
                )
                for metric in DEFINITION["per_layer"]
            }
            first_metrics, first_prompts = traced.first_cycle
            report["fingerprint"] = fingerprint(
                first_metrics, first_prompts, workload.in_process
            )
            report["traced_cycles"] = traced.cycles
            recs = [plain, traced]
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    attempted = sum(len(rec.op_s) for rec in recs)
    failed = sum(rec.failed for rec in recs)
    failures = setup_problems + [f for rec in recs for f in rec.failures]
    correct = not failures
    report["checks"] = {"correct": correct, "failures": failures[:20]}
    report["end_to_end"] = figures
    if args.trace:
        report["per_layer"] = metrics
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print_figures("end-to-end (tracing off; times at reference speed):", figures)
    if args.trace:
        print_figures("per-layer (traced pass; n = ops):", metrics)
        print(f"fingerprint: {json.dumps(report['fingerprint'], sort_keys=True)}")
    print(f"known-answer checks: {'pass' if correct else 'FAIL'}")
    for failure in failures[:20]:
        print(f"  {failure}")
    print("report " + json.dumps(report, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": fig["value"], "unit": fig["unit"]}
            for name, fig in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh process, one after another."""
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        print(child.stdout, end="")
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            status = status or child.returncode or 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}:{metric}"] = value
    print(json.dumps(combined), flush=True)
    return status


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
