"""Tests for burst power scaling, processing costs, and the power audit."""

import numpy as np
import pytest

from tdcoop.power import (
    PowerConfig,
    processing_power,
    relay_power,
    total_power,
    user_burst_power,
)
from tdcoop.strategies import parse_strategy


class TestBurstPowers:
    def test_mac_and_rc_burst_is_k_times_budget(self):
        pc = PowerConfig(user_power=1.0)
        for name in ("mac", "rc-ddf", "rc-af"):
            s = parse_strategy(name, 3)
            np.testing.assert_allclose(user_burst_power(s, pc), 3.0)

    def test_uc_burst_shares_with_helpers(self):
        pc = PowerConfig(user_power=1.0)
        s3 = parse_strategy("uc3-ddf", 3)
        np.testing.assert_allclose(user_burst_power(s3, pc, 1), 1.0)
        s2 = parse_strategy("uc2-ddf", 3)
        np.testing.assert_allclose(user_burst_power(s2, pc, 2), 1.0)

    def test_relay_budget(self):
        pc = PowerConfig(user_power=2.0, relay_power_factor=0.5)
        np.testing.assert_allclose(relay_power(pc), 1.0)


class TestProcessingPower:
    def test_af_relay_costs_nothing(self):
        pc = PowerConfig(encode_factor=1.0, decode_factor=1.0, overhead_power=0.0)
        assert processing_power(pc, 0, 0) == 0.0

    def test_ddf_forwarder_one_user(self):
        pc = PowerConfig(rate=0.25, encode_factor=0.5, decode_factor=0.5)
        np.testing.assert_allclose(processing_power(pc, 1, 1), 0.25)

    def test_own_message_encode_only(self):
        pc = PowerConfig(rate=0.25, encode_factor=1.0, decode_factor=1.0)
        np.testing.assert_allclose(processing_power(pc, 1, 0), 0.25)

    def test_overhead_charged_once_when_active(self):
        pc = PowerConfig(rate=0.25, encode_factor=0.0, decode_factor=0.0, overhead_power=0.7)
        assert processing_power(pc, 0, 0) == 0.0
        np.testing.assert_allclose(processing_power(pc, 1, 0), 0.7)
        np.testing.assert_allclose(processing_power(pc, 2, 2), 0.7)


class TestTotalPower:
    def test_mac_transmit_only(self):
        pc = PowerConfig(user_power=1.0)
        np.testing.assert_allclose(total_power(parse_strategy("mac", 3), pc), 3.0)

    def test_mac_sources_pay_encode_only(self):
        # 3 users * (1 + encode own 0.25); no decode is charged anywhere
        pc = PowerConfig(user_power=1.0, rate=0.25, encode_factor=1.0, decode_factor=1.0)
        np.testing.assert_allclose(total_power(parse_strategy("mac", 3), pc), 3 * (1 + 0.25))

    def test_rc_ddf_hand_audit(self):
        # 3 users * (1 + encode own 0.25) + relay 0.5 + relay codes 3 users
        pc = PowerConfig(
            user_power=1.0, rate=0.25, relay_power_factor=0.5,
            encode_factor=1.0, decode_factor=1.0,
        )
        np.testing.assert_allclose(total_power(parse_strategy("rc-ddf", 3), pc), 5.75)

    def test_uc3_ddf_hand_audit(self):
        pc = PowerConfig(user_power=1.0, rate=0.25, encode_factor=0.01, decode_factor=0.01)
        np.testing.assert_allclose(total_power(parse_strategy("uc3-ddf", 3), pc), 3.0375)

    def test_af_forwarders_add_no_processing(self):
        pc = PowerConfig(user_power=1.0, rate=0.25, encode_factor=0.5, decode_factor=0.5)
        # each source still encodes its own message
        np.testing.assert_allclose(
            total_power(parse_strategy("uc3-af", 3), pc), 3 * (1 + 0.5 * 0.25)
        )

    def test_processing_free_reductions(self):
        pc = PowerConfig(user_power=1.0, relay_power_factor=0.5)
        assert total_power(parse_strategy("uc2-ddf", 3), pc) == 3.0
        assert total_power(parse_strategy("mac", 3), pc) == 3.0
        np.testing.assert_allclose(total_power(parse_strategy("rc-ddf", 3), pc), 3.5)

    def test_monotone_in_cost_knobs(self):
        base = PowerConfig(user_power=1.0, rate=0.25, relay_power_factor=0.5,
                           encode_factor=0.1, decode_factor=0.1, overhead_power=0.1)
        s = parse_strategy("uc3-ddf", 3)
        ref = total_power(s, base)
        for knob in ("user_power", "rate", "encode_factor", "decode_factor", "overhead_power"):
            bigger = PowerConfig(**{**base.__dict__, knob: getattr(base, knob) * 2 + 0.01})
            assert total_power(s, bigger) > ref


SEVEN = ("mac", "rc-ddf", "uc2-ddf", "uc3-ddf", "rc-af", "uc2-af", "uc3-af")
# test id -> (strategy name, number of users, coop_sets)
AUDIT_CASES = {
    **{name: (name, 3, None) for name in SEVEN},
    "uc2-ddf-ring": ("uc2-ddf", 3, {1: [2], 2: [3], 3: [1]}),
    "uc4-ddf": ("uc4-ddf", 4, None),
    "uc4-af": ("uc4-af", 4, None),
}


class TestBudgetAudit:
    @pytest.mark.parametrize(
        "name,num_users,coop_sets", list(AUDIT_CASES.values()), ids=list(AUDIT_CASES)
    )
    def test_burst_over_on_time_meets_the_budget(self, name, num_users, coop_sets):
        """User k is on in its own period and the N_k it forwards in, each
        1/K of the frame, so its burst averages back to P_k."""
        pc = PowerConfig(user_power=1.3)
        s = parse_strategy(name, num_users, coop_sets=coop_sets)
        for k in range(1, num_users + 1):
            average = user_burst_power(s, pc, k) * (s.num_forwarded(k) + 1) / num_users
            assert abs(average - pc.user_power) <= 1e-12, (name, k)


class TestPowerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PowerConfig(user_power=-1.0)
        with pytest.raises(ValueError):
            PowerConfig(rate=-0.1)
        with pytest.raises(ValueError):
            PowerConfig(encode_factor=-0.5)

    @pytest.mark.parametrize("value", (float("nan"), float("inf")))
    @pytest.mark.parametrize(
        "name",
        ("user_power", "rate", "relay_power_factor", "encode_factor", "decode_factor", "overhead_power"),
    )
    def test_nonfinite_field_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            PowerConfig(**{name: value})

    def test_with_user_power(self):
        pc = PowerConfig(user_power=1.0, rate=0.25)
        pc10 = pc.with_user_power(10.0)
        assert pc10.user_power == 10.0
        assert pc10.rate == 0.25
        assert pc.user_power == 1.0
