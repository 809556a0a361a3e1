"""Transmit and processing power accounting.

Every user owns a 1/K share of the frame and spends its average budget
P_k only while transmitting, so bursts are scaled up by the inverse of
the transmitting time share (``user_burst_power``; the relay's budget is
``relay_power``).  These are the program's only burst and budget rules:
the sweep harness passes each user's burst and its forwarders' budgets
to the trial kernels in one parameter record, and the kernels apply the
in-period boosts (a DDF forwarder's 1/(1 - theta) over its remaining
time, an AF forwarder's two-slot gain).  Every analytic bound,
``mac_outage`` included, takes the source's burst; only the DDF bounds
take the forwarders' budgets, as branch weights.

Cooperation adds processing costs on top: a node pays eta * R_j to
encode and delta * R_j to decode a rate-R_j message, plus a fixed
overhead P_0 when it processes at all.  A source only encodes its own
message; a DDF forwarder decodes and re-encodes each message it relays;
an AF forwarder does neither.  The destination's processing is not
charged to the network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .strategies import Strategy

__all__ = [
    "PowerConfig",
    "user_burst_power",
    "relay_power",
    "processing_power",
    "total_power",
]


@dataclass(frozen=True)
class PowerConfig:
    """Symmetric per-user budgets and processing-cost model parameters.

    user_power is P_k for every user; the relay budget is
    relay_power_factor * user_power.  rate is the common message rate in
    bits per channel use.  encode_factor / decode_factor are the eta and
    delta multipliers on the rate; overhead_power is the fixed P_0 added
    whenever a node does any processing.
    """

    user_power: float = 1.0
    rate: float = 0.25
    relay_power_factor: float = 0.5
    encode_factor: float = 0.0
    decode_factor: float = 0.0
    overhead_power: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.user_power < 0 or self.relay_power_factor < 0:
            raise ValueError("powers must be nonnegative")
        if self.rate < 0:
            raise ValueError("rate must be nonnegative")
        if min(self.encode_factor, self.decode_factor, self.overhead_power) < 0:
            raise ValueError("processing factors must be nonnegative")

    def with_user_power(self, p: float) -> "PowerConfig":
        return replace(self, user_power=p)


def user_burst_power(strategy: Strategy, pc: PowerConfig, k: int = 1) -> float:
    """Burst (in-slot) power of user k under the strategy's time sharing.

    Without user cooperation a user is on for 1/K of the frame, so the
    burst is K * P_k.  With user cooperation user k is also on during the
    periods of the N_k users it forwards for, which divides the burst by
    N_k + 1.
    """
    return strategy.num_users * pc.user_power / (strategy.num_forwarded(k) + 1)


def relay_power(pc: PowerConfig) -> float:
    """Average power budget of the dedicated relay."""
    return pc.relay_power_factor * pc.user_power


def processing_power(pc: PowerConfig, encodes_for: int = 0, decodes_for: int = 0) -> float:
    """P_0 + (eta * #encoded + delta * #decoded) * R for one node.

    encodes_for and decodes_for count the messages the node encodes and
    decodes; with a symmetric rate only the counts matter.  A node that
    codes nothing pays nothing, not even overhead.
    """
    if encodes_for < 0 or decodes_for < 0:
        raise ValueError("indicator counts must be nonnegative")
    if encodes_for == 0 and decodes_for == 0:
        return 0.0
    return pc.overhead_power + (
        pc.encode_factor * encodes_for + pc.decode_factor * decodes_for
    ) * pc.rate


def total_power(strategy: Strategy, pc: PowerConfig) -> float:
    """Network-wide average power: transmit budgets plus processing.

    Sources always encode their own message.  DDF forwarders add an
    encode+decode pair per forwarded message; AF forwarders add nothing;
    an AF relay is charged only its transmit budget (pure analogue
    processing has no per-message cost here, and its operating overhead
    is part of P_0 only when it processes digitally).
    """
    K = strategy.num_users
    total = 0.0
    for k in range(1, K + 1):
        enc = 1  # own message
        dec = 0
        if strategy.family == "ddf":
            n_fwd = strategy.num_forwarded(k)
            enc += n_fwd
            dec += n_fwd
        total += pc.user_power + processing_power(pc, enc, dec)
    if strategy.uses_relay:
        total += relay_power(pc)
        if strategy.family == "ddf":
            total += processing_power(pc, K, K)
    return total

