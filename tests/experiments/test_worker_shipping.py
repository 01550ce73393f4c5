"""Worker shipping: campaigns ship Scenario coordinates, not configs.

The campaign engine ships only Scenario coordinate tuples to pool
workers and regenerates each network in-worker.  That is sound only
because generation is byte-deterministic: two materializations of the
same coordinates give the same configs and RIBs, and a campaign's
summary artifacts do not depend on the worker count.
"""

import json

from repro.batfish.bgpsim import BgpSimulation, rib_snapshots
from repro.cisco import generate_cisco
from repro.experiments.campaign import (
    Scenario,
    build_grid,
    run_campaign,
    run_scenario,
    topology_seed,
)
from repro.experiments.no_transit import materialize_network
from repro.topology.reference import build_reference_configs


class TestRegenerationDeterminism:
    def test_rematerialized_configs_byte_identical(self):
        """Two materializations of the same coordinates must render to
        byte-identical configs — the property that makes shipping
        coordinates instead of configs sound."""
        scenario = Scenario(family="waxman", size=8, seed=1, roles="c2i2h2")
        seed = topology_seed(scenario)
        rendered = []
        for _ in range(2):
            network = materialize_network(
                scenario.family,
                scenario.size,
                roles=scenario.roles,
                topology_seed=seed,
            )
            configs = build_reference_configs(network.topology)
            rendered.append(
                {name: generate_cisco(config) for name, config in configs.items()}
            )
        assert rendered[0] == rendered[1]

    def test_shipped_network_ribs_identical(self):
        """A run on a parent-materialized network converges to the same
        RIBs as a run that regenerates from coordinates."""
        scenario = Scenario(family="mesh", size=6, seed=0)
        snapshots = []
        for _ in range(2):
            network = materialize_network(scenario.family, scenario.size)
            sim = BgpSimulation(build_reference_configs(network.topology))
            sim.run()
            snapshots.append(rib_snapshots(sim))
        assert snapshots[0] == snapshots[1]

    def test_run_scenario_network_param_matches_regeneration(self):
        """run_scenario on a pre-materialized network must produce the
        same row (wall-clock aside) as coordinate regeneration."""
        scenario = Scenario(family="star", size=5, seed=0)
        network = materialize_network(scenario.family, scenario.size)
        rows = [run_scenario(scenario), run_scenario(scenario, network)]
        dicts = []
        for row in rows:
            record = dict(vars(row))
            record.pop("duration_s")
            dicts.append(record)
        assert dicts[0] == dicts[1]


class TestCampaignWorkerCounts:
    def test_four_workers_match_serial(self):
        grid = build_grid(["star", "mesh"], [5], seeds=1)
        summaries = [
            json.dumps(run_campaign(grid, workers=workers).to_dict(), sort_keys=True)
            for workers in (1, 4)
        ]
        assert summaries[0] == summaries[1]
