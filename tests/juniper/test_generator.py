"""Tests for the Junos generator and the reference translator."""

from repro.cisco import parse_cisco
from repro.juniper import (
    generate_juniper,
    parse_juniper,
    translate_cisco_to_juniper,
)
from repro.netmodel import (
    Action,
    MatchPrefixRanges,
    MatchProtocol,
    Protocol,
)
from repro.sampleconfigs import BATFISH_EXAMPLE_CISCO, load_translation_source


def _reference():
    juniper, notes = translate_cisco_to_juniper(load_translation_source())
    return juniper, notes


class TestGenerator:
    def test_reference_renders_and_reparses_clean(self):
        juniper, _ = _reference()
        text = generate_juniper(juniper)
        assert "policy-statement" in text
        result = parse_juniper(text)
        assert not result.warnings

    def test_hostname_block(self):
        juniper, _ = _reference()
        assert "host-name as100border1;" in generate_juniper(juniper)

    def test_autonomous_system_rendered(self):
        juniper, _ = _reference()
        assert "autonomous-system 100;" in generate_juniper(juniper)

    def test_route_filter_orlonger_for_ge(self):
        """our-networks (1.2.3.0/24 ge 24) lowers to orlonger."""
        juniper, _ = _reference()
        assert "route-filter 1.2.3.0/24 orlonger" in generate_juniper(juniper)

    def test_ospf_area_with_passive_and_metric(self):
        juniper, _ = _reference()
        text = generate_juniper(juniper)
        assert "metric 1;" in text
        assert "passive;" in text

    def test_bgp_groups_per_neighbor(self):
        juniper, _ = _reference()
        text = generate_juniper(juniper)
        assert "neighbor 2.3.4.5 {" in text
        assert "peer-as 200;" in text

    def test_named_community_synthesized_for_set(self):
        """set community 100:300 additive needs a named community."""
        juniper, _ = _reference()
        text = generate_juniper(juniper)
        assert "members 100:300" in text
        assert "community add" in text

    def test_roundtrip_preserves_policy_semantics(self):
        juniper, _ = _reference()
        text = generate_juniper(juniper)
        reparsed = parse_juniper(text).config
        assert set(reparsed.route_maps) == set(juniper.route_maps)


class TestTranslator:
    def test_notes_record_range_lowering(self):
        _, notes = _reference()
        assert "our-networks" in notes.range_lowered_lists

    def test_notes_record_redistribution_fold(self):
        _, notes = _reference()
        assert "to_provider" in notes.redistribution_policies
        assert "to_provider" in notes.guarded_export_policies

    def test_redistributions_cleared(self):
        juniper, _ = _reference()
        assert juniper.bgp.redistributions == []

    def test_export_terms_gain_protocol_guard(self):
        juniper, _ = _reference()
        to_provider = juniper.route_maps["to_provider"]
        first = to_provider.clauses[0]
        assert MatchProtocol(Protocol.BGP) in first.matches

    def test_redistribution_term_added_with_guard(self):
        juniper, _ = _reference()
        to_provider = juniper.route_maps["to_provider"]
        redistribute_terms = [
            clause
            for clause in to_provider.clauses
            if clause.term_name == "redistribute-ospf"
        ]
        assert len(redistribute_terms) == 1
        assert MatchProtocol(Protocol.OSPF) in redistribute_terms[0].matches

    def test_ranged_matches_lowered_inline(self):
        juniper, _ = _reference()
        to_provider = juniper.route_maps["to_provider"]
        assert any(
            isinstance(condition, MatchPrefixRanges)
            for clause in to_provider.clauses
            for condition in clause.matches
        )

    def test_trailing_deny_stays_last(self):
        """Redistribution terms must precede an unconditional reject."""
        text = (
            BATFISH_EXAMPLE_CISCO
            + "route-map to_provider deny 999\n"
        )
        source = parse_cisco(text).config
        juniper, _ = translate_cisco_to_juniper(source)
        clauses = juniper.route_maps["to_provider"].clauses
        assert clauses[-1].action is Action.DENY
        assert clauses[-1].matches == []
        assert any(c.term_name == "redistribute-ospf" for c in clauses[:-1])

    def test_vendor_flag_set(self):
        juniper, _ = _reference()
        assert juniper.vendor.value == "juniper"

    def test_source_not_mutated(self):
        source = load_translation_source()
        before = len(source.bgp.redistributions)
        translate_cisco_to_juniper(source)
        assert len(source.bgp.redistributions) == before
