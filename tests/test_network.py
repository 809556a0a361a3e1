"""Tests for sector geometry sampling and node distances."""

import dataclasses
import math

import numpy as np
import pytest

from tdcoop import mc, network
from tdcoop.network import (
    DESTINATION,
    RELAY,
    GeometryParams,
    NodePlacement,
    sample_placement,
    user_id,
)


def unit_circle_placement(num_users=3, **kwargs):
    params = GeometryParams(num_users=num_users, **kwargs)
    positions = {DESTINATION: (0.0, 0.0), RELAY: (0.5, 0.0)}
    for k in range(1, num_users + 1):
        ang = 0.1 + 0.3 * k
        positions[user_id(k)] = (0.9 * np.cos(ang), 0.9 * np.sin(ang))
    return NodePlacement(params=params, positions=positions)


class TestGeometryParams:
    def test_defaults(self):
        p = GeometryParams()
        assert p.num_users == 3
        assert p.sector_radius == 1.0
        np.testing.assert_allclose(p.sector_angle, np.pi / 3)
        assert p.exclusion_radius == 0.3
        assert p.relay_position == (0.5, 0.0)
        assert p.path_loss_exponent == 4.0

    def test_empty_annulus_rejected(self):
        with pytest.raises(ValueError):
            GeometryParams(exclusion_radius=0.3, sector_radius=0.3)

    def test_bad_angle_rejected(self):
        with pytest.raises(ValueError):
            GeometryParams(sector_angle=0.0)
        with pytest.raises(ValueError):
            GeometryParams(sector_angle=7.0)

    def test_bad_user_count_rejected(self):
        with pytest.raises(ValueError):
            GeometryParams(num_users=0)

    @pytest.mark.parametrize("num_users", (2.5, 3.0, True), ids=("fraction", "whole-float", "bool"))
    def test_user_count_must_be_an_integer(self, num_users):
        with pytest.raises(ValueError, match="^num_users must be an integer >= 1"):
            GeometryParams(num_users=num_users)

    @pytest.mark.parametrize("value", (float("nan"), float("inf")))
    @pytest.mark.parametrize(
        "name",
        (
            "sector_radius", "sector_angle", "exclusion_radius", "path_loss_exponent",
            "relay_position",
        ),
    )
    def test_nonfinite_field_rejected(self, name, value):
        if name.endswith("_position"):
            value = (0.0, value)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            GeometryParams(**{name: value})

    @pytest.mark.parametrize(
        "value",
        ((0.5,), (0.5, 0.0, 0.0), 0.5, "xy", (True, 0.0), ((0.5, 0.0),), [0.5, None]),
        ids=("one", "three", "scalar", "word", "bool", "nested", "none"),
    )
    def test_relay_position_must_be_two_numbers(self, value):
        """A relay position that is not an (x, y) pair fails when the
        params are built, not at the first placement."""
        with pytest.raises(ValueError, match="^relay_position must be an \\(x, y\\) pair"):
            GeometryParams(relay_position=value)
        params = GeometryParams(relay_position=[0.4, 1])
        assert sample_placement(params, np.random.default_rng(0)).positions[RELAY] == (0.4, 1.0)

    def test_relay_position_is_a_float_pair(self):
        """A relay given as a tuple, a list or an ndarray is stored as one
        tuple of two floats, so the params compare and hash alike."""
        built = [
            GeometryParams(relay_position=pos) for pos in ((0.4, 1), [0.4, 1.0], np.array([0.4, 1.0]))
        ]
        for params in built:
            assert params.relay_position == (0.4, 1.0)
            assert [type(v) for v in params.relay_position] == [float, float]
        assert built[0] == built[1] == built[2]
        assert len({hash(params) for params in built}) == 1


class TestSamplePlacement:
    def test_positions_inside_annulus_sector(self):
        params = GeometryParams()
        rng = np.random.default_rng(0)
        for _ in range(200):
            pl = sample_placement(params, rng)
            for k in range(1, 4):
                x, y = pl.positions[user_id(k)]
                r = np.hypot(x, y)
                ang = np.arctan2(y, x)
                assert 0.3 <= r <= 1.0 + 1e-12
                assert -1e-12 <= ang <= np.pi / 3 + 1e-12

    def test_area_uniform_radius_mean(self):
        """Mean radius matches the analytic area-uniform value.

        The density 2r/(1-0.09) on [0.3, 1] integrates to a mean of
        0.712820..., well inside 0.7158 +- 0.005.
        """
        params = GeometryParams(num_users=1)
        rng = np.random.default_rng(1)
        radii = np.empty(10**5)
        for i in range(radii.size):
            x, y = sample_placement(params, rng).positions["u1"]
            radii[i] = np.hypot(x, y)
        np.testing.assert_allclose(radii.mean(), 0.7128205128205128, atol=2e-3)
        assert abs(radii.mean() - 0.7158) < 5e-3

    def test_deterministic_given_seed(self):
        params = GeometryParams()
        a = sample_placement(params, np.random.default_rng(42)).positions
        b = sample_placement(params, np.random.default_rng(42)).positions
        assert a == b

    def test_relay_and_destination_fixed(self):
        params = GeometryParams(relay_position=(0.4, 0.1))
        pl = sample_placement(params, np.random.default_rng(3))
        assert pl.positions[RELAY] == (0.4, 0.1)
        assert pl.positions[DESTINATION] == (0.0, 0.0)


class TestNodePlacement:
    def test_distance_matrix_consistency(self):
        pl = unit_circle_placement()
        for a in pl.node_ids:
            for b in pl.node_ids:
                if a == b:
                    continue
                xa, ya = pl.positions[a]
                xb, yb = pl.positions[b]
                want = np.hypot(xa - xb, ya - yb)
                np.testing.assert_allclose(pl.distance(a, b), want, atol=1e-12)
                np.testing.assert_allclose(pl.distance(b, a), want, atol=1e-12)

    def test_relay_destination_distance(self):
        pl = unit_circle_placement()
        np.testing.assert_allclose(pl.distance(RELAY, DESTINATION), 0.5, rtol=1e-15)

    def test_self_link_rejected(self):
        pl = unit_circle_placement()
        with pytest.raises(ValueError):
            pl.distance("u1", "u1")

    @pytest.mark.parametrize("pair", (("u4", DESTINATION), (RELAY, "x")))
    def test_unknown_node_rejected(self, pair):
        pl = unit_circle_placement()
        with pytest.raises(ValueError):
            pl.distance(*pair)

    def test_later_edits_to_the_positions_move_nothing(self):
        positions = {DESTINATION: (0.0, 0.0), RELAY: (0.5, 0.0), "u1": (0.9, 0.1)}
        pl = NodePlacement(params=GeometryParams(num_users=1), positions=positions)
        table, length = pl.link_pow(), pl.distance(RELAY, "u1")
        positions["u1"] = (0.2, 0.2)
        assert pl.positions["u1"] == (0.9, 0.1)
        assert pl.distance(RELAY, "u1") == length and pl.link_pow() == table

    def test_placements_compare_by_identity(self):
        """A placement holds no array: two drawn from one stream key have
        equal positions, yet compare unequal without raising, and both
        hash."""
        assert [f.name for f in dataclasses.fields(NodePlacement)] == ["params", "positions", "_pow"]
        p, q = (sample_placement(GeometryParams(), mc.derive_stream(1, 0, 0)) for _ in range(2))
        assert p.positions == q.positions
        assert not any(isinstance(v, np.ndarray) for v in vars(p).values())
        assert (p == q) is False
        assert (p == p) is True
        assert len({p, q}) == 2
        assert hash(p) == hash(p)

    def test_nodes_at_one_point_rejected(self):
        with pytest.raises(ValueError, match="relay_position must differ"):
            GeometryParams(relay_position=(0.0, 0.0))
        params = GeometryParams(num_users=2)
        positions = {DESTINATION: (0, 0), RELAY: (0.5, 0), "u1": (0.5, 0.0), "u2": (0.0, 0.0)}
        with pytest.raises(ValueError, match=r"\[\('d', 'u2'\), \('r', 'u1'\)\]"):
            NodePlacement(params=params, positions=positions)

    def test_missing_node_rejected(self):
        params = GeometryParams(num_users=2)
        with pytest.raises(ValueError):
            NodePlacement(
                params=params,
                positions={DESTINATION: (0, 0), RELAY: (0.5, 0), "u1": (0.4, 0.1)},
            )


class TestLinkTable:
    """A placement owns its d^gamma table and refuses a link whose
    d^gamma is 0 or past the float range."""

    # The edge workload's rim cluster: three users near the sector's rim,
    # 2 degrees apart.
    RIM = ((1.0, 29.0), (0.99, 31.0), (0.98, 33.0))

    @staticmethod
    def polar_placement(params, users):
        positions = {DESTINATION: (0.0, 0.0), RELAY: (0.5, 0.0)}
        for k, (r, deg) in enumerate(users, start=1):
            a = math.radians(deg)
            positions[user_id(k)] = (r * math.cos(a), r * math.sin(a))
        return NodePlacement(params=params, positions=positions)

    @pytest.mark.parametrize("gamma", (4.0, 3.7))
    def test_table_is_the_float_power_of_each_distance(self, gamma):
        """Bit for bit, every ordered pair's entry is distance ** gamma
        in Python float power, and a node's link to itself reads 0."""
        params = GeometryParams(path_loss_exponent=gamma)
        rng = np.random.default_rng(17)
        placements = [sample_placement(params, rng) for _ in range(20)]
        placements.append(self.polar_placement(params, self.RIM))
        for pl in placements:
            table = pl.link_pow()
            assert list(table) == list(pl.node_ids)
            for a in pl.node_ids:
                assert list(table[a]) == list(pl.node_ids)
                for b in pl.node_ids:
                    want = 0.0 if a == b else pl.distance(a, b) ** gamma
                    assert table[a][b] == want, (a, b)

    def test_editing_a_returned_table_leaves_the_next_one_unchanged(self):
        pl = self.polar_placement(GeometryParams(), self.RIM)
        first = pl.link_pow()
        want = {a: dict(row) for a, row in first.items()}
        first[DESTINATION][RELAY] = -1.0
        first["u1"].clear()
        del first["u2"]
        assert pl.link_pow() == want

    def test_close_users_underflow_rejected(self):
        """Users at radius 0.9 and 10, 16 and 22 degrees sit 0.094 apart
        in neighbouring pairs, and 0.094^400 underflows to 0: the placement
        names both links instead of handing a d^gamma of 0 to the kernels
        and the bounds (which returned p_hat 0 for uc2-af or raised for
        uc2-ddf and uc3-ddf)."""
        params = GeometryParams(path_loss_exponent=400)
        with pytest.raises(ValueError, match=r"\[\('u1', 'u2'\), \('u2', 'u3'\)\]") as info:
            self.polar_placement(params, ((0.9, 10.0), (0.9, 16.0), (0.9, 22.0)))
        assert isinstance(info.value, network.LinkRangeError)
        assert str(info.value).startswith(
            "sector_radius 1, relay_position (0.5, 0.0) and path_loss_exponent 400 "
        )

    @pytest.mark.parametrize(
        "scale",
        ({"sector_radius": 1.0e100}, {"relay_position": (1.0e100, 0.0)}),
        ids=("huge-sector", "far-relay"),
    )
    def test_a_hopeless_scale_fails_at_its_first_placement(self, scale):
        """The geometry itself is accepted; the first placement it draws
        raises, since its links' d^gamma overflow."""
        params = GeometryParams(**scale)
        with pytest.raises(network.LinkRangeError, match="outside the float range"):
            sample_placement(params, np.random.default_rng(0))


def broadcast_reference(params, positions):
    """An independent build of a placement's links: every distance from one
    numpy broadcast of the coordinates, read back with ``.tolist()``, and
    each d^gamma in Python float power (inf where it overflows, 0.0 on the
    diagonal).  Returns the node ids, the distance rows and the table."""
    ids = (DESTINATION, RELAY) + tuple(user_id(k) for k in range(1, params.num_users + 1))
    coords = np.array([positions[i] for i in ids], dtype=float)
    delta = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((delta**2).sum(axis=-1)).tolist()
    table = {}
    for a, row in zip(ids, dist):
        table[a] = {}
        for b, d in zip(ids, row):
            try:
                table[a][b] = 0.0 if a == b else d**params.path_loss_exponent
            except OverflowError:
                table[a][b] = math.inf
    return ids, dist, table


class TestBroadcastReference:
    """Link by link in Python floats, a placement's distances and d^gamma
    table equal, bit for bit, the ones a numpy broadcast gives, and it
    refuses exactly the links whose reference d^gamma is 0 or inf."""

    @staticmethod
    def assert_matches(params, positions):
        """Check one geometry; return whether it made a placement."""
        ids, dist, table = broadcast_reference(params, positions)
        bad = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :] if not 0.0 < table[a][b] < math.inf]
        if bad:
            with pytest.raises(network.LinkRangeError) as info:
                NodePlacement(params=params, positions=positions)
            assert f"links {bad} at 0" in str(info.value)
            return False
        pl = NodePlacement(params=params, positions=positions)
        got = pl.link_pow()
        assert list(got) == list(ids) and all(list(row) == list(ids) for row in got.values())
        assert got == table
        for i, a in enumerate(ids):
            for j, b in enumerate(ids):
                if a != b:
                    assert pl.distance(a, b) == dist[i][j], (a, b)
        return True

    def test_sampled_placements(self):
        """10,080 placements: K = 2-4, gamma from 2 to 6, with the default
        relay and a moved one."""
        rng = np.random.default_rng(3707)
        count = 0
        for num_users in (2, 3, 4):
            for gamma in (2, 2.5, 3.0, 3.7, 4.0, 6.0):
                for relay in ((0.5, 0.0), (0.35, 0.45)):
                    params = GeometryParams(num_users=num_users, path_loss_exponent=gamma, relay_position=relay)
                    for _ in range(280):
                        pl = sample_placement(params, rng)
                        assert self.assert_matches(params, pl.positions)
                        count += 1
        assert count >= 10_000

    @pytest.mark.parametrize(
        "params,users,builds",
        (
            (GeometryParams(), TestLinkTable.RIM, True),
            (GeometryParams(path_loss_exponent=3.7), TestLinkTable.RIM, True),
            # 0.094^400 underflows to 0; 0.157^400 is a subnormal above it.
            (GeometryParams(path_loss_exponent=400), ((0.9, 10.0), (0.9, 16.0), (0.9, 22.0)), False),
            (GeometryParams(path_loss_exponent=400), ((0.9, 10.0), (0.9, 20.0), (0.9, 30.0)), True),
            # A relay whose d^4 sits just inside the float range, and one
            # past it.
            (GeometryParams(relay_position=(1.0e77, 0.0)), TestLinkTable.RIM, True),
            (GeometryParams(relay_position=(1.0e78, 0.0)), TestLinkTable.RIM, False),
        ),
        ids=("rim", "rim-3.7", "close-underflow", "close-subnormal", "far-relay-inside", "far-relay-past"),
    )
    def test_edge_geometries(self, params, users, builds):
        positions = {DESTINATION: (0.0, 0.0), RELAY: params.relay_position}
        for k, (r, deg) in enumerate(users, start=1):
            a = math.radians(deg)
            positions[user_id(k)] = (r * math.cos(a), r * math.sin(a))
        assert self.assert_matches(params, positions) is builds

    @pytest.mark.parametrize(
        "scale",
        ({"sector_radius": 1.0e100}, {"relay_position": (1.0e100, 0.0)}),
        ids=("huge-sector", "far-relay"),
    )
    def test_hopeless_scales(self, scale):
        """The positions are drawn at gamma 1, where every d^gamma fits."""
        params = GeometryParams(**scale)
        drawn = sample_placement(dataclasses.replace(params, path_loss_exponent=1.0), np.random.default_rng(0))
        assert self.assert_matches(params, drawn.positions) is False
