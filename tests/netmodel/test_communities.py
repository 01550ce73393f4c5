"""Tests for BGP communities and community lists."""

import re

import pytest
from hypothesis import given, strategies as st

from repro.netmodel.communities import (
    Community,
    CommunityError,
    CommunityList,
    CommunityListEntry,
)


class TestCommunity:
    def test_parse(self):
        assert Community.parse("100:1") == Community(100, 1)

    def test_str(self):
        assert str(Community(65000, 42)) == "65000:42"

    def test_rejects_missing_colon(self):
        with pytest.raises(CommunityError):
            Community.parse("1001")

    def test_rejects_negative(self):
        with pytest.raises(CommunityError):
            Community.parse("-1:1")

    def test_rejects_asn_overflow(self):
        with pytest.raises(CommunityError):
            Community(70000, 1)

    def test_rejects_value_overflow(self):
        with pytest.raises(CommunityError):
            Community(100, 70000)

    def test_ordering(self):
        assert Community(100, 1) < Community(101, 1)

    @given(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
    def test_parse_str_roundtrip(self, asn, value):
        community = Community(asn, value)
        assert Community.parse(str(community)) == community


class TestCommunityListEntry:
    def test_single_community_match(self):
        entry = CommunityListEntry("permit", (Community(100, 1),))
        assert entry.matches(frozenset({Community(100, 1)}))

    def test_single_community_no_match(self):
        entry = CommunityListEntry("permit", (Community(100, 1),))
        assert not entry.matches(frozenset({Community(101, 1)}))

    def test_multi_community_requires_all(self):
        entry = CommunityListEntry(
            "permit", (Community(100, 1), Community(101, 1))
        )
        assert not entry.matches(frozenset({Community(100, 1)}))
        assert entry.matches(frozenset({Community(100, 1), Community(101, 1)}))

    def test_regex_entry(self):
        entry = CommunityListEntry("permit", regex=r"^100:")
        assert entry.matches(frozenset({Community(100, 7)}))
        assert not entry.matches(frozenset({Community(200, 7)}))

    def test_rejects_bad_action(self):
        with pytest.raises(CommunityError):
            CommunityListEntry("allow", (Community(100, 1),))

    def test_rejects_empty_entry(self):
        with pytest.raises(CommunityError):
            CommunityListEntry("permit")


class TestCommunityList:
    def test_first_match_wins(self):
        clist = CommunityList("test")
        clist.add(CommunityListEntry("deny", (Community(100, 1),)))
        clist.add(CommunityListEntry("permit", (Community(100, 1),)))
        assert not clist.permits([Community(100, 1)])

    def test_default_deny(self):
        clist = CommunityList("test")
        clist.add(CommunityListEntry("permit", (Community(100, 1),)))
        assert not clist.permits([Community(200, 5)])

    def test_empty_list_denies(self):
        assert not CommunityList("empty").permits([Community(100, 1)])

    def test_permit_with_extra_communities(self):
        clist = CommunityList("test")
        clist.add(CommunityListEntry("permit", (Community(100, 1),)))
        assert clist.permits([Community(100, 1), Community(999, 9)])

    def test_permitted_communities_collects_permits_only(self):
        clist = CommunityList("test")
        clist.add(CommunityListEntry("deny", (Community(1, 1),)))
        clist.add(CommunityListEntry("permit", (Community(100, 1),)))
        assert clist.permitted_communities() == frozenset({Community(100, 1)})


class TestExpandedListRegex:
    """Expanded (regex) entries compile once and match as re.search does."""

    PATTERNS = (r"^100:", r":1$", r"^[23]00:[0-9]$", r"65535")

    @given(
        st.sampled_from(PATTERNS),
        st.frozensets(
            st.builds(Community, st.integers(0, 300), st.integers(0, 12)),
            max_size=4,
        ),
    )
    def test_matches_like_re_search(self, pattern, carried):
        entry = CommunityListEntry("permit", regex=pattern)
        expected = any(re.search(pattern, str(item)) for item in carried)
        assert entry.matches(carried) is expected
        assert entry.matches(carried) is expected  # the cached pattern

    def test_compiles_once_per_entry(self, monkeypatch):
        entry = CommunityListEntry("permit", regex=r"^100:")
        compiled = []
        real_compile = re.compile

        def counting(pattern, *args):
            compiled.append(pattern)
            return real_compile(pattern, *args)

        monkeypatch.setattr(re, "compile", counting)
        for value in range(20):
            entry.matches(frozenset({Community(100, value)}))
        assert compiled == [r"^100:"]

    def test_cached_pattern_is_not_part_of_identity(self):
        used = CommunityListEntry("permit", regex=r"^100:")
        used.matches(frozenset({Community(100, 1)}))
        fresh = CommunityListEntry("permit", regex=r"^100:")
        assert used == fresh and hash(used) == hash(fresh)
        assert "pattern" not in repr(used)

    def test_malformed_regex_fails_at_match_time(self):
        entry = CommunityListEntry("permit", regex="[")
        with pytest.raises(re.error):
            entry.matches(frozenset({Community(100, 1)}))
