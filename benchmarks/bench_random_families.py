"""Random/Waxman families: generation + pipeline timing.

For a grid of (family, size, seed, roles) cells, generate the seeded
network (asserting byte-determinism against a second generation), build
its reference configs, and run the full verification pipeline (local
invariants → composition → global check with per-role verdicts),
timing each stage.

Emits a JSON report; runnable standalone for the CI smoke job::

    python benchmarks/bench_random_families.py --small --json out.json
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro.lightyear import (
    check_composition,
    check_global_no_transit,
    no_transit_invariants,
    verify_invariants,
)
from repro.lightyear.compose import reset_simulation_states
from repro.symbolic.memo import reset_caches
from repro.topology.families import generate_network
from repro.topology.reference import build_reference_configs

GRID = [
    ("random", 10, "c2i3h2", "p=0.35"),
    ("random", 14, "c2i3h2", "p=0.35"),
    ("random", 18, "c3i4h2p1", "p=0.25"),
    ("waxman", 10, "c2i3h2", "default"),
    ("waxman", 14, "c2i3h2", "default"),
    ("waxman", 18, "c3i4h2p1", "alpha=0.6,beta=0.7"),
]

SMALL_GRID = [
    ("random", 7, "c2i2h1", "p=0.45"),
    ("waxman", 7, "c2i2h1", "default"),
]

SEEDS = 3


def measure_cell(family, size, roles, topo, seed):
    """One roled scenario through the offline pipeline, timed per stage."""
    t0 = time.perf_counter()
    network = generate_network(family, size, seed=seed, roles=roles, params=topo)
    again = generate_network(family, size, seed=seed, roles=roles, params=topo)
    assert network.topology.to_json() == again.topology.to_json(), (
        f"{family}-{size} seed {seed} is not byte-deterministic"
    )
    t_generate = time.perf_counter() - t0

    topology = network.topology
    t0 = time.perf_counter()
    configs = build_reference_configs(topology)
    t_reference = time.perf_counter() - t0

    t0 = time.perf_counter()
    invariants = no_transit_invariants(topology)
    violations = verify_invariants(configs, invariants)
    assert not violations, [v.message for v in violations]
    composition = check_composition(invariants, configs, topology)
    assert composition.holds, composition.describe()
    t_local = time.perf_counter() - t0

    t0 = time.perf_counter()
    check = check_global_no_transit(configs, topology)
    t_global = time.perf_counter() - t0
    assert check.holds, check.describe()
    assert check.role_verdicts and all(check.role_verdicts.values())

    return {
        "family": family,
        "size": size,
        "seed": seed,
        "roles": roles,
        "topo": topo,
        "links": len(topology.links),
        "role_count": len(check.role_verdicts),
        "invariants": len(invariants),
        "generate_s": round(t_generate, 6),
        "reference_s": round(t_reference, 6),
        "local_verify_s": round(t_local, 6),
        "global_check_s": round(t_global, 6),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--small", action="store_true",
        help="tiny grid (CI smoke)",
    )
    parser.add_argument("--json", default=None, help="write the report here")
    args = parser.parse_args(argv)

    grid = SMALL_GRID if args.small else GRID
    seeds = 1 if args.small else SEEDS
    rows = []
    for family, size, roles, topo in grid:
        for seed in range(seeds):
            reset_caches()
            reset_simulation_states()
            row = measure_cell(family, size, roles, topo, seed)
            rows.append(row)
            print(
                f"{family:>7} n={size:<2} seed={seed} roles={roles:<10} "
                f"links={row['links']:>3} roles_ok={row['role_count']} "
                f"generate={row['generate_s'] * 1000:6.1f}ms "
                f"pipeline={(row['reference_s'] + row['local_verify_s'] + row['global_check_s']) * 1000:7.1f}ms"
            )

    report = {"families": rows}
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
