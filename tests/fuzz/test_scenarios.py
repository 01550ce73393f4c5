"""Scenario generation: determinism, serialization, the observed paths."""

import json

import pytest

from repro.fuzz.oracle import PATHS, observe
from repro.lightyear.compose import IncrementalGlobalChecker
from repro.fuzz.scenarios import FuzzEdit, FuzzScenario, scenario_at
from repro.obs import counters_snapshot, delta


class TestScenarioAt:
    def test_pure_function_of_seed_and_index(self):
        """The scenario sequence must be derivable in any process at
        any worker count: index i never depends on indices before it."""
        forward = [scenario_at(7, index) for index in range(20)]
        shuffled = [scenario_at(7, index) for index in reversed(range(20))]
        assert forward == list(reversed(shuffled))

    def test_seeds_give_distinct_sequences(self):
        a = [scenario_at(0, index).key() for index in range(10)]
        b = [scenario_at(1, index).key() for index in range(10)]
        assert a != b

    def test_generated_scenarios_are_valid_coordinates(self):
        """Every generated scenario names a real family with a size its
        pools allow, and at least one edit."""
        from repro.topology.families import FAMILIES

        for index in range(30):
            scenario = scenario_at(0, index)
            assert scenario.family in FAMILIES
            assert 3 <= scenario.size <= 10
            assert 1 <= len(scenario.edits) <= 4

    def test_serialization_roundtrip_is_byte_identical(self):
        for index in range(10):
            scenario = scenario_at(3, index)
            rebuilt = FuzzScenario.from_dict(json.loads(scenario.to_json()))
            assert rebuilt == scenario
            assert rebuilt.to_json() == scenario.to_json()


class TestPaths:
    def test_each_path_converges_and_checks_its_own_way(self, monkeypatch):
        """The full path converges from scratch at every step and hands
        each global check a fresh checker; the incremental path must
        really take the worklist and the warm checker registry, or the
        three-way comparison checks nothing.  The spy runs every global
        check cold, so the simulation counters see only the path's own
        convergence."""
        import repro.lightyear as lightyear

        real_check = lightyear.check_global_no_transit
        checkers = {path: [] for path in PATHS}

        def spy(configs, topology, checker=None):
            checkers[path].append(checker)
            return real_check(configs, topology, IncrementalGlobalChecker())

        monkeypatch.setattr(lightyear, "check_global_no_transit", spy)
        scenario = FuzzScenario(
            family="mesh",
            size=6,
            edits=(
                FuzzEdit(1, "announce_shared_prefix"),
                FuzzEdit(2, "bump_local_pref"),
            ),
        )
        incremental_runs = {}
        for path in PATHS:
            before = counters_snapshot()
            observe(scenario, path)
            incremental_runs[path] = delta(before, counters_snapshot()).get(
                "sim.incremental_converge.count", 0
            )
        assert incremental_runs["full"] == 0
        assert incremental_runs["incremental"] > 0
        assert len(checkers["full"]) == 3
        assert all(
            isinstance(checker, IncrementalGlobalChecker)
            for checker in checkers["full"]
        )
        assert len(set(map(id, checkers["full"]))) == 3
        assert checkers["incremental"] == [None] * 3

    def test_unknown_path_is_rejected(self):
        with pytest.raises(ValueError, match="unknown path"):
            observe(scenario_at(0, 0), "legacy")
