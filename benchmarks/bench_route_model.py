"""Route datapath: deterministic work counts of a full mesh converge.

For each mesh size the bench full-converges the border-policy mesh —
the workload whose route-attribute copying once dominated the profile —
``rounds`` times, reporting the median wall-clock alongside the counts
that do not depend on the machine: route-map/install ``evaluations``,
``routes_built`` (builder freezes plus direct export constructions) and
``routes_reused`` (no-change freezes plus per-session candidate reuses).
Every cell first asserts that the converged RIBs equal the reference
simulator's (:mod:`repro.fuzz.reference`), and a roled multi-homed
waxman cell extends that check to role-assigned graphs.

Emits a JSON report; runnable standalone for the CI smoke job::

    python benchmarks/bench_route_model.py --small --json out.json --check

The committed ``BENCH_route_model.json`` at the repo root records the
full run.  ``--check`` turns the acceptance gates into the exit code:
every row's ``evaluations`` and ``routes_built`` must stay at or under
the recorded ceilings in :data:`CEILINGS` (a rise means the simulator
does more work for the same network), and every row must report
``routes_reused > 0`` (a zero means the per-session candidate reuse
path stopped counting).
"""

import argparse
import copy
import json
import statistics
import sys
import time
from pathlib import Path

from repro.batfish.bgpsim import BgpSimulation
from repro.fuzz.oracle import canonical_ribs
from repro.fuzz.reference import simulate
from repro.netmodel.route import reset_route_stats, route_totals
from repro.topology.families import generate_network
from repro.topology.reference import build_reference_configs

MESH_SIZES = (10, 14, 18)
SMALL_MESH_SIZES = (8,)
ROLED_CELL = ("waxman", 10, "c2i2h2")
SMALL_ROLED_CELL = ("waxman", 8, "c2i2h2")
ROUNDS = 3

# label -> (evaluations, routes_built) ceilings, recorded from the
# builder datapath's full converge of each cell.
CEILINGS = {
    "mesh-8": (3164, 364),
    "mesh-10": (8010, 735),
    "mesh-14": (32032, 2093),
    "mesh-18": (89454, 4539),
    "waxman-8-c2i2h2": (565, 91),
    "waxman-10-c2i2h2": (960, 178),
}


def _converge(configs):
    simulation = BgpSimulation(copy.deepcopy(configs))
    started = time.perf_counter()
    simulation.run()
    return simulation, time.perf_counter() - started


def measure(configs, label, rounds=ROUNDS):
    """Median-of-``rounds`` converge time plus the deterministic counts
    of one run, after checking the RIBs against the reference."""
    times = []
    for _round in range(rounds):
        reset_route_stats()  # per run: a run's counts are deterministic
        simulation, elapsed = _converge(configs)
        times.append(elapsed)
        totals = route_totals()
    production = {name: simulation.rib(name) for name in configs}
    assert canonical_ribs(production) == canonical_ribs(simulate(configs)), (
        f"{label}: production and reference converged to different RIBs"
    )
    return {
        "label": label,
        "evaluations": simulation.evaluations,
        "converge_s": round(statistics.median(times), 4),
        "routes_built": totals["routes_built"],
        "routes_reused": totals["routes_reused"],
    }


def check(rows):
    """Gate failures for the report rows (empty when all pass)."""
    failures = []
    for row in rows:
        label = row["label"]
        if label not in CEILINGS:
            failures.append(f"{label}: no recorded ceiling")
            continue
        max_evaluations, max_built = CEILINGS[label]
        if row["evaluations"] > max_evaluations:
            failures.append(
                f"{label}: evaluations {row['evaluations']} > "
                f"{max_evaluations}"
            )
        if row["routes_built"] > max_built:
            failures.append(
                f"{label}: routes_built {row['routes_built']} > {max_built}"
            )
        if not row["routes_reused"]:
            failures.append(f"{label}: routes_reused == 0")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--small", action="store_true",
        help="one small mesh + small roled cell (CI smoke)",
    )
    parser.add_argument("--json", default=None, help="write the report here")
    parser.add_argument(
        "--check", action="store_true",
        help=(
            "exit 1 unless every row stays within its evaluations and "
            "routes_built ceilings and has routes_reused > 0 (the CI gate)"
        ),
    )
    args = parser.parse_args(argv)

    mesh_sizes = SMALL_MESH_SIZES if args.small else MESH_SIZES
    roled = SMALL_ROLED_CELL if args.small else ROLED_CELL

    rows = []
    for size in mesh_sizes:
        configs = build_reference_configs(generate_network("mesh", size).topology)
        row = measure(configs, f"mesh-{size}")
        row["mesh_size"] = size
        rows.append(row)
        print(
            f"mesh-{size}: {row['converge_s']:.3f}s, "
            f"{row['evaluations']} evaluations, {row['routes_built']} "
            f"routes built, {row['routes_reused']} reused (RIBs match "
            f"the reference)"
        )

    family, size, roles = roled
    configs = build_reference_configs(
        generate_network(family, size, seed=1, roles=roles).topology
    )
    roled_row = measure(configs, f"{family}-{size}-{roles}")
    print(
        f"{roled_row['label']}: {roled_row['converge_s']:.3f}s, "
        f"{roled_row['evaluations']} evaluations (RIBs match the "
        f"reference on the multi-homed roled graph)"
    )

    report = {"meshes": rows, "roled": roled_row}
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.json}")
    if args.check:
        failures = check(rows + [roled_row])
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        print(
            "checks passed: evaluations and routes_built within their "
            "ceilings, routes_reused > 0 everywhere"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
