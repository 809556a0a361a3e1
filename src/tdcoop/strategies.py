"""Transmission strategy descriptors.

A strategy fixes who cooperates with whom and which forwarding scheme is
used.  Canonical names:

    mac        time-division multiaccess, no cooperation
    rc-ddf     dedicated relay, dynamic decode-and-forward
    rc-af      dedicated relay, amplify-and-forward (half/half split)
    uc2-ddf    user cooperation, single relaying slot shared by all helpers
    uc2-af     user cooperation, amplify-and-forward (half/half split)
    ucN-ddf    user cooperation over N hops (N >= 3), greedy decode order
    ucN-af     user cooperation over N hops, fixed 1/N fractions

Helper sets default to "all other users".  N_k below is the number of
users that user k forwards for; it sets the burst power via the
time-sharing rule in the power module.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

__all__ = ["Strategy", "parse_strategy"]

MULTIHOP_MODES = ("accumulating", "per-fraction")

_NAME_RE = re.compile(r"^(mac|rc-(ddf|af)|uc(\d+)-(ddf|af))$")


@dataclass(frozen=True)
class Strategy:
    """One simulated strategy over a K-user network.

    ``coop_sets[k-1]`` lists the helper users of user k (1-based ids);
    empty for mac and for the relay networks, where the helper is the
    dedicated relay.  ``multihop_mode`` only affects DDF with 3+ hops;
    every other strategy keeps the default, so equal physics compares
    equal.
    """

    name: str
    family: str  # "mac" | "ddf" | "af"
    mode: str  # "mac" | "rc" | "uc2" | "ucmh"
    num_users: int
    coop_sets: tuple[tuple[int, ...], ...] = field(default=())
    multihop_mode: str = "accumulating"

    def __post_init__(self):
        if self.family not in ("mac", "ddf", "af"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.mode not in ("mac", "rc", "uc2", "ucmh"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.multihop_mode not in MULTIHOP_MODES:
            raise ValueError(f"multihop_mode must be one of {MULTIHOP_MODES}")
        if self.mode in ("mac", "rc") and self.coop_sets:
            raise ValueError(f"{self.name} takes no coop_sets")
        if self.multihop_mode != MULTIHOP_MODES[0] and (self.mode, self.family) != ("ucmh", "ddf"):
            raise ValueError(f"{self.name} takes no multihop_mode (only ucN-ddf, N >= 3)")
        if self.mode in ("uc2", "ucmh"):
            if len(self.coop_sets) != self.num_users:
                raise ValueError("coop_sets must list helpers for every user")
            for k, helpers in enumerate(self.coop_sets, start=1):
                if len(helpers) == 0:
                    raise ValueError(f"user {k} has an empty helper set")
                if k in helpers or len(set(helpers)) != len(helpers):
                    raise ValueError(f"invalid helper set for user {k}: {helpers}")
                bad = [j for j in helpers if not 1 <= j <= self.num_users]
                if bad:
                    raise ValueError(f"helper ids out of range for user {k}: {bad}")
            if self.mode == "ucmh":
                sizes = {len(h) for h in self.coop_sets}
                if sizes != {len(self.coop_sets[0])} or len(self.coop_sets[0]) < 2:
                    raise ValueError("multihop requires >= 2 helpers per user, same count")

    @property
    def uses_relay(self) -> bool:
        return self.mode == "rc"

    def hops(self, k: int = 1) -> int:
        if self.mode == "mac":
            return 1
        if self.mode in ("rc", "uc2"):
            return 2
        return len(self.coop_sets[k - 1]) + 1

    def helpers(self, k: int) -> tuple[int, ...]:
        """Helper users of user k (empty for mac / relay networks)."""
        if self.mode in ("mac", "rc"):
            return ()
        return self.coop_sets[k - 1]

    def num_forwarded(self, j: int) -> int:
        """N_j: how many users does user j forward for."""
        return sum(1 for helpers in self.coop_sets for h in helpers if h == j)


def _all_others(num_users: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(j for j in range(1, num_users + 1) if j != k)
        for k in range(1, num_users + 1)
    )


def parse_strategy(
    name: str,
    num_users: int,
    coop_sets=None,
    multihop_mode: str = "accumulating",
) -> Strategy:
    """Build a Strategy from its canonical name.

    ``coop_sets`` overrides the all-others default for the uc modes (mac
    and rc-* take none); it is a mapping {user -> iterable of helpers} or
    a full tuple-of-tuples.  Either way each helper set is sorted, so
    multihop decode-order ties go to the lowest node index whatever order
    the helpers are listed in.  ``multihop_mode`` is checked for every
    name, but only ucN-ddf (N >= 3) keeps it.
    """
    m = _NAME_RE.match(name.strip().lower())
    if not m:
        raise ValueError(f"unknown strategy name {name!r}")
    if multihop_mode not in MULTIHOP_MODES:
        raise ValueError(f"multihop_mode must be one of {MULTIHOP_MODES}")
    token = m.group(0)
    if coop_sets is not None and m.group(3) is None:
        raise ValueError(f"{token} takes no coop_sets")
    if token == "mac":
        return Strategy(name=token, family="mac", mode="mac", num_users=num_users)
    if token.startswith("rc-"):
        family = token.split("-")[1]
        return Strategy(name=token, family=family, mode="rc", num_users=num_users)
    hop_count = int(m.group(3))
    family = m.group(4)
    if coop_sets is None:
        sets = _all_others(num_users)
    else:
        if isinstance(coop_sets, dict):
            coop_sets = [coop_sets.get(k, ()) for k in range(1, num_users + 1)]
        sets = tuple(tuple(sorted(int(j) for j in h)) for h in coop_sets)
    if hop_count == 2:
        return Strategy(
            name=token, family=family, mode="uc2", num_users=num_users, coop_sets=sets
        )
    if hop_count < 3:
        raise ValueError(f"hop count must be 2 or >= 3, got {hop_count}")
    strat = Strategy(
        name=token,
        family=family,
        mode="ucmh",
        num_users=num_users,
        coop_sets=sets,
        multihop_mode=multihop_mode if family == "ddf" else MULTIHOP_MODES[0],
    )
    for k in range(1, num_users + 1):
        if strat.hops(k) != hop_count:
            raise ValueError(
                f"strategy {token!r} implies {hop_count} hops but user {k} "
                f"has {len(sets[k - 1])} helpers"
            )
    return strat
