"""Deterministic-count gates on a full BGP converge.

Each cell full-converges a family's reference configs once.  The RIBs
must equal the reference simulator's (:mod:`repro.fuzz.reference`), and
the work the route datapath did must stay at or under a recorded
ceiling:

* ``evaluations`` — route-map and install evaluations;
* ``routes_built`` — builder freezes plus direct export constructions.

``routes_reused`` (no-change freezes plus per-session candidate reuses)
must be non-zero; a zero means the reuse path stopped counting.  Counts,
not wall time: each is a pure function of the configs, so the gates
repeat exactly on any machine.
"""

import pytest

from repro.batfish.bgpsim import BgpSimulation
from repro.fuzz.oracle import canonical_ribs
from repro.fuzz.reference import simulate
from repro.obs import counters_snapshot, delta
from repro.topology.families import generate_network
from repro.topology.reference import build_reference_configs

#: (family, size, roles) -> (evaluations, routes_built) ceilings, each
#: the count the datapath measured when it was recorded.  The roled
#: waxman cells are multi-homed (two customers, two ISPs each homed
#: twice), generated with seed 1.
CEILINGS = {
    ("mesh", 8, None): (3164, 364),
    ("mesh", 10, None): (8010, 735),
    ("mesh", 14, None): (32032, 2093),
    ("mesh", 18, None): (89454, 4539),
    ("waxman", 8, "c2i2h2"): (565, 91),
    ("waxman", 10, "c2i2h2"): (960, 178),
}


def _cell_id(cell):
    family, size, roles = cell
    return f"{family}-{size}" + (f"-{roles}" if roles else "")


@pytest.mark.parametrize("cell", sorted(CEILINGS, key=_cell_id), ids=_cell_id)
def test_full_converge_within_ceilings(cell):
    family, size, roles = cell
    if roles is None:
        network = generate_network(family, size)
    else:
        network = generate_network(family, size, seed=1, roles=roles)
    configs = build_reference_configs(network.topology)

    before = counters_snapshot()
    simulation = BgpSimulation(configs)
    simulation.run()
    moved = delta(before, counters_snapshot())

    production = {name: simulation.rib(name) for name in configs}
    assert canonical_ribs(production) == canonical_ribs(simulate(configs))
    max_evaluations, max_built = CEILINGS[cell]
    assert simulation.evaluations <= max_evaluations, simulation.evaluations
    built = moved.get("route.routes_built", 0)
    assert built <= max_built, built
    assert moved.get("route.routes_reused", 0) > 0
