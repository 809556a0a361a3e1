"""Tests for strategy name parsing and cooperating-set bookkeeping."""

import dataclasses

import numpy as np
import pytest

from tdcoop.strategies import Strategy, parse_strategy


class TestParseStrategy:
    def test_mac(self):
        s = parse_strategy("mac", 3)
        assert (s.family, s.mode) == ("mac", "mac")
        assert not s.uses_relay
        assert (s.kernel, s.branches) == ("mac", 1)

    def test_rc_variants(self):
        for fam in ("ddf", "af"):
            s = parse_strategy(f"rc-{fam}", 3)
            assert s.family == fam
            assert s.mode == "rc"
            assert s.uses_relay
            assert (s.kernel, s.branches) == ({"ddf": "rc-ddf", "af": "af2"}[fam], 2)

    def test_uc2_default_sets(self):
        s = parse_strategy("uc2-ddf", 3)
        assert s.mode == "uc2"
        assert s.helpers(1) == (2, 3)
        assert s.helpers(3) == (1, 2)
        assert (s.kernel, s.branches) == ("uc2-ddf", 3)

    def test_uc3_multihop(self):
        s = parse_strategy("uc3-af", 3)
        assert s.mode == "ucmh"
        assert (s.kernel, s.branches) == ("afmh", 3)
        assert s.helpers(2) == (1, 3)

    def test_forward_counts_symmetric_default(self):
        s = parse_strategy("uc3-ddf", 3)
        for j in (1, 2, 3):
            assert s.num_forwarded(j) == 2

    def test_hop_count_must_fit_user_count(self):
        with pytest.raises(ValueError):
            parse_strategy("uc3-ddf", 2)
        # K = 4 leaves room for 3-hop with a chosen pair of helpers
        s = parse_strategy("uc3-ddf", 4, coop_sets={1: (2, 3), 2: (3, 4), 3: (4, 1), 4: (1, 2)})
        assert s.helpers(4) == (1, 2)

    def test_unknown_names_rejected(self):
        names = ("", "tdma", "uc-ddf", "uc1-ddf", "rc", "uc2-xx", "mac-ddf", "uc03-ddf", "uc02-af")
        for bad in names:
            with pytest.raises(ValueError):
                parse_strategy(bad, 3)

    def test_custom_coop_sets_validated(self):
        with pytest.raises(ValueError):
            # user may not help itself
            parse_strategy("uc2-ddf", 3, coop_sets={1: (1,), 2: (3,), 3: (2,)})
        with pytest.raises(ValueError):
            # out-of-range helper
            parse_strategy("uc2-ddf", 3, coop_sets={1: (4,), 2: (3,), 3: (2,)})

    def test_helper_order_is_sorted_in_both_forms(self):
        """A mapping and a tuple of helper sets give the same strategy
        whatever order the helpers are listed in."""
        written = {1: [3, 2], 2: [3, 1], 3: [2, 1]}
        by_map = parse_strategy("uc3-ddf", 3, coop_sets=written)
        by_tuple = parse_strategy("uc3-ddf", 3, coop_sets=tuple(map(tuple, written.values())))
        assert by_map == by_tuple == parse_strategy("uc3-ddf", 3)
        assert by_tuple.coop_sets == ((2, 3), (1, 3), (1, 2))

    def test_asymmetric_sets_change_burst_sharing(self):
        s = parse_strategy("uc2-ddf", 3, coop_sets={1: (2, 3), 2: (1,), 3: (1,)})
        assert s.helpers(1) == (2, 3)
        # user 1 forwards for both others, users 2 and 3 only for user 1
        assert s.num_forwarded(1) == 2
        assert s.num_forwarded(2) == 1


class TestStrategyInvariants:
    def test_multihop_mode_field(self):
        s = parse_strategy("uc3-ddf", 3)
        assert s.multihop_mode == "accumulating"
        s2 = Strategy(name="uc3-ddf", num_users=3, coop_sets=s.coop_sets, multihop_mode="per-fraction")
        assert s2.multihop_mode == "per-fraction"

    def test_invalid_multihop_mode_rejected(self):
        s = parse_strategy("uc3-ddf", 3)
        with pytest.raises(ValueError):
            Strategy(name="uc3-ddf", num_users=3, coop_sets=s.coop_sets, multihop_mode="bogus")

    @pytest.mark.parametrize(
        "name",
        ("mac", "rc-ddf", "uc2-ddf", "uc3-af"),
        ids=("mac-mac-mac", "rc-ddf-ddf-rc", "uc2-ddf-ddf-uc2", "uc3-af-af-ucmh"),  # name-family-mode
    )
    def test_only_multihop_ddf_takes_a_mode(self, name):
        sets = parse_strategy(name, 3).coop_sets
        with pytest.raises(ValueError, match="no multihop_mode"):
            Strategy(name=name, num_users=3, coop_sets=sets, multihop_mode="per-fraction")

    def test_relay_and_mac_take_no_coop_sets(self):
        with pytest.raises(ValueError, match="no coop_sets"):
            Strategy(name="rc-ddf", num_users=3, coop_sets=((2,), (3,), (1,)))


class TestTheNameFixesTheScheme:
    @pytest.mark.parametrize(
        "name,num_users,family,mode,kernel,branches",
        (
            ("mac", 3, "mac", "mac", "mac", 1),
            ("rc-ddf", 3, "ddf", "rc", "rc-ddf", 2),
            ("rc-af", 3, "af", "rc", "af2", 2),
            ("uc2-ddf", 3, "ddf", "uc2", "uc2-ddf", 3),
            ("uc2-af", 3, "af", "uc2", "af2", 3),
            ("uc3-ddf", 3, "ddf", "ucmh", "ucmh-ddf", 3),
            ("uc3-af", 3, "af", "ucmh", "afmh", 3),
            ("uc4-ddf", 4, "ddf", "ucmh", "ucmh-ddf", 4),
            ("uc4-af", 4, "af", "ucmh", "afmh", 4),
            ("uc5-ddf", 5, "ddf", "ucmh", "ucmh-ddf", 5),
        ),
    )
    def test_derived_attributes(self, name, num_users, family, mode, kernel, branches):
        s = parse_strategy(name, num_users)
        assert (s.family, s.mode, s.kernel, s.branches) == (family, mode, kernel, branches)
        assert Strategy(name=name, num_users=num_users, coop_sets=s.coop_sets) == s

    def test_branches_follow_the_largest_helper_set(self):
        s = parse_strategy("uc2-ddf", 3, coop_sets={1: (2,), 2: (1,), 3: (1, 2)})
        assert s.branches == 3
        assert parse_strategy("uc2-ddf", 3, coop_sets={1: (2,), 2: (3,), 3: (1,)}).branches == 2

    def test_four_init_fields(self):
        assert [f.name for f in dataclasses.fields(Strategy) if f.init] == [
            "name", "num_users", "coop_sets", "multihop_mode"
        ]
        assert "family" not in repr(parse_strategy("rc-ddf", 3))

    def test_scheme_cannot_be_set_beside_the_name(self):
        """A mac strategy cannot be made to run the relay's kernel."""
        with pytest.raises(TypeError):
            Strategy(name="mac", family="ddf", mode="rc", num_users=3)

    @pytest.mark.parametrize(
        "name", ("tdma", "MAC", " mac", "uc1-ddf", "mac\n", "uc03-ddf", "uc02-af")
    )
    def test_only_canonical_names(self, name):
        """A second spelling of a scheme (uc03-ddf for uc3-ddf) is no name."""
        like = {"uc03-ddf": "uc3-ddf", "uc02-af": "uc2-af"}.get(name)
        sets = parse_strategy(like, 3).coop_sets if like else ()
        with pytest.raises(ValueError, match="unknown strategy name .*: expected mac, rc-ddf"):
            Strategy(name=name, num_users=3, coop_sets=sets)

    def test_multihop_helper_count_is_hops_minus_one(self):
        with pytest.raises(ValueError, match="implies 3 hops but user 1 has 3 helpers"):
            Strategy(name="uc3-ddf", num_users=4, coop_sets=parse_strategy("uc4-ddf", 4).coop_sets)


class TestSettingsThatDoNothing:
    @pytest.mark.parametrize("name", ("mac", "rc-ddf", "rc-af", "uc2-ddf", "uc2-af", "uc3-af", "uc3-ddf"))
    def test_multihop_mode_checked_for_every_name(self, name):
        with pytest.raises(ValueError, match="multihop_mode"):
            parse_strategy(name, 3, multihop_mode="bogus")
        assert parse_strategy(name, 3, multihop_mode="accumulating") == parse_strategy(name, 3)

    @pytest.mark.parametrize(
        "name,num_users,kept", (("uc3-af", 3, False), ("uc4-af", 4, False), ("uc3-ddf", 3, True))
    )
    def test_only_multihop_ddf_keeps_the_mode(self, name, num_users, kept):
        """AF never reads the mode, so both modes give one strategy."""
        got = parse_strategy(name, num_users, multihop_mode="per-fraction")
        assert (got == parse_strategy(name, num_users)) is not kept
        assert got.multihop_mode == ("per-fraction" if kept else "accumulating")

    @pytest.mark.parametrize("name", ("mac", "rc-ddf", "rc-af"))
    def test_coop_sets_rejected_without_helper_users(self, name):
        with pytest.raises(ValueError, match="no coop_sets"):
            parse_strategy(name, 3, coop_sets={1: [2], 2: [3], 3: [1]})
        assert parse_strategy(name, 3, coop_sets=None) == parse_strategy(name, 3)


class TestOneSpecPerScheme:
    """Each scheme has one name and one spec, however it was written."""

    @pytest.mark.parametrize(
        "name,sets",
        (
            ("uc3-ddf", ((3, 2), (3, 1), (2, 1))),
            ("uc2-ddf", [[3, 2], [1, 3], [2, 1]]),
            ("mac", []),
            ("rc-af", []),
        ),
        ids=("unsorted", "unsorted-lists", "mac-list", "rc-af-list"),
    )
    def test_written_forms_are_the_parsed_spec(self, name, sets):
        """Helper sets are stored as sorted tuples, so the spec compares
        and hashes equal to the parsed one."""
        direct, parsed = Strategy(name, 3, sets), parse_strategy(name, 3)
        assert direct == parsed and hash(direct) == hash(parsed)
        assert direct.coop_sets == parsed.coop_sets

    @pytest.mark.parametrize(
        "coop_sets",
        (
            {1: [2.7], 2: [3], 3: [1]},
            {1: [2], 2: [True], 3: [1]},
            {1: [2], 2: [3], 3: [1], 9: [1]},
            {True: [2], 2: [3], 3: [1]},
        ),
        ids=("fractional-helper", "bool-helper", "key-9", "key-true"),
    )
    def test_ids_that_are_not_users_rejected(self, coop_sets):
        """Nothing is truncated, read as 0 or 1, or dropped."""
        with pytest.raises(ValueError):
            parse_strategy("uc2-ddf", 3, coop_sets=coop_sets)

    @pytest.mark.parametrize("helper", ("2", 2.0, None), ids=("string", "float", "none"))
    def test_non_integer_helper_is_a_value_error(self, helper):
        with pytest.raises(ValueError, match="helper ids must be integers"):
            Strategy("uc2-ddf", 3, ((helper,), (3,), (1,)))

    @pytest.mark.parametrize("num_users", (0, -1, 3.0, True), ids=("zero", "negative", "float", "bool"))
    def test_user_count_must_be_a_positive_integer(self, num_users):
        with pytest.raises(ValueError, match="^num_users must be an integer >= 1"):
            Strategy("mac", num_users)

    def test_parsed_strategy_needs_users(self):
        """No uc2 strategy without helper sets: zero users is refused."""
        with pytest.raises(ValueError, match="^num_users must be an integer >= 1"):
            parse_strategy("uc2-ddf", 0)

    @pytest.mark.parametrize("name,num_users", (("mac", 2.5), ("uc2-ddf", 3.0)))
    def test_parsed_user_count_must_be_an_integer(self, name, num_users):
        """The parser refuses a fractional user count as Strategy does,
        before it builds the default helper sets."""
        with pytest.raises(ValueError, match="^num_users must be an integer >= 1"):
            parse_strategy(name, num_users)

    def test_numpy_integer_helpers_are_plain_ints(self):
        s = Strategy("uc2-ddf", 3, ((np.int64(3),), (np.int32(1),), (1, 2)))
        assert s == parse_strategy("uc2-ddf", 3, coop_sets={1: [3], 2: [1], 3: [2, 1]})
        assert all(type(j) is int for helpers in s.coop_sets for j in helpers)
