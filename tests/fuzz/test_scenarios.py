"""Scenario generation: determinism, serialization, the combination matrix."""

import json

from repro.core import toggles
from repro.fuzz.oracle import (
    FUZZ_FACTORS,
    REFERENCE_TOGGLES,
    all_combos,
    memo_partner,
)
from repro.fuzz.scenarios import FuzzScenario, scenario_at


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


ALL_ON = {"incremental_simulation": True, "memoization": True}


class TestCombos:
    def test_all_combos_is_the_full_matrix(self):
        combos = all_combos()
        assert len(combos) == 2 ** len(FUZZ_FACTORS) == 4
        assert len({json.dumps(c, sort_keys=True) for c in combos}) == 4
        assert combos[0] == REFERENCE_TOGGLES
        assert ALL_ON in combos

    def test_combos_cover_every_registered_toggle(self):
        for combo in all_combos():
            assert set(combo) == set(toggles.toggle_names())

    def test_memo_partner_is_the_incremental_twin(self):
        assert memo_partner(ALL_ON) == {**ALL_ON, "incremental_simulation": False}
        assert memo_partner(REFERENCE_TOGGLES) is None
        assert memo_partner({**ALL_ON, "memoization": False}) is None
        assert memo_partner({**ALL_ON, "incremental_simulation": False}) is None
