"""Tests for YAML configuration loading and the command line front end."""

import math

import pytest

from tdcoop import cli
from tdcoop.cli import main
from tdcoop.config import ConfigError, config_from_dict, load_config

BASE_YAML = """\
seed: 5
placements: 2
snr_db: [0.0, 10.0]
target_events: 50
trial_ceiling: 30000
geometry:
  num_users: 3
power:
  rate: 0.25
strategies:
  - mac
  - rc-ddf
"""


def write_cfg(tmp_path, text=BASE_YAML, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigFromDict:
    def test_minimal(self):
        cfg = config_from_dict({"strategies": ["mac"]})
        assert cfg.master_seed == 0
        assert cfg.num_placements == 100
        assert cfg.snr_db == (0.0,)
        assert cfg.strategies[0].name == "mac"
        assert cfg.geometry.num_users == 3

    def test_full_round_trip(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path))
        assert cfg.master_seed == 5
        assert cfg.num_placements == 2
        assert [s.name for s in cfg.strategies] == ["mac", "rc-ddf"]
        assert cfg.trial_ceiling == 30000

    def test_snr_range_mapping(self):
        cfg = config_from_dict(
            {"strategies": ["mac"], "snr_db": {"start": 0, "stop": 45, "step": 5}}
        )
        assert cfg.snr_db == tuple(float(x) for x in range(0, 50, 5))

    def test_snr_range_validation(self):
        with pytest.raises(ConfigError):
            config_from_dict({"strategies": ["mac"], "snr_db": {"start": 0, "stop": 45}})
        with pytest.raises(ConfigError):
            config_from_dict(
                {"strategies": ["mac"], "snr_db": {"start": 5, "stop": 0, "step": 1}}
            )

    def test_geometry_section(self):
        cfg = config_from_dict(
            {
                "strategies": ["mac"],
                "geometry": {
                    "num_users": 3,
                    "sector_angle_deg": 60,
                    "relay": [0.4, 0.1],
                    "path_loss_exponent": 3.5,
                },
            }
        )
        assert math.isclose(cfg.geometry.sector_angle, math.pi / 3)
        assert cfg.geometry.relay_position == (0.4, 0.1)
        assert cfg.geometry.path_loss_exponent == 3.5

    def test_power_section(self):
        cfg = config_from_dict(
            {
                "strategies": ["mac"],
                "power": {"rate": 0.5, "relay_factor": 0.25, "encode_factor": 1.0},
            }
        )
        assert cfg.power.rate == 0.5
        assert cfg.power.relay_power_factor == 0.25
        assert cfg.power.encode_factor == 1.0
        assert cfg.power.user_power == 1.0

    def test_strategy_mapping_with_coop_sets(self):
        cfg = config_from_dict(
            {
                "strategies": [
                    {"name": "uc2-ddf", "coop_sets": {1: [2], 2: [3], 3: [1]}},
                    {"name": "uc3-ddf", "multihop_mode": "per-fraction"},
                ]
            }
        )
        assert cfg.strategies[0].helpers(1) == (2,)
        assert cfg.strategies[1].multihop_mode == "per-fraction"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown top-level"):
            config_from_dict({"strategies": ["mac"], "snr_grid": [0]})
        with pytest.raises(ConfigError, match="unknown geometry"):
            config_from_dict({"strategies": ["mac"], "geometry": {"users": 3}})
        with pytest.raises(ConfigError, match="unknown power"):
            config_from_dict({"strategies": ["mac"], "power": {"p1": 2.0}})
        with pytest.raises(ConfigError, match="unknown top-level"):
            config_from_dict({"strategies": ["mac"], "x_axis": "transmit-snr"})

    def test_strategies_required(self):
        with pytest.raises(ConfigError):
            config_from_dict({})
        with pytest.raises(ConfigError):
            config_from_dict({"strategies": []})

    def test_duplicate_strategies_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            config_from_dict({"strategies": ["mac", "mac"]})

    def test_invalid_strategy_name(self):
        with pytest.raises(ValueError):
            config_from_dict({"strategies": ["tdma"]})

    def test_overrides_replace_file_values(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path), seed=99, snr_db=[5.0])
        assert cfg.master_seed == 99
        assert cfg.snr_db == (5.0,)

    def test_root_must_be_mapping(self):
        with pytest.raises(ConfigError):
            config_from_dict(["mac"])

    def test_malformed_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("strategies: [mac\n  nope")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_unreadable_or_non_mapping_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "missing.yaml"))
        with pytest.raises(ConfigError, match="mapping"):
            load_config(write_cfg(tmp_path, "- mac\n"))


class TestCliRun:
    def test_stdout_csv(self, tmp_path, capsys):
        rc = main(["run", "-c", write_cfg(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("strategy,user_k,snr_db,ptot_db,outage,ci95,")
        assert len(out.splitlines()) == 1 + 2 * 2

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        rc = main(["run", "-c", write_cfg(tmp_path), "-o", str(out)])
        assert rc == 0
        assert "wrote 4 rows" in capsys.readouterr().out
        assert out.read_text().splitlines()[0].startswith("strategy,user_k")

    def test_missing_config_exits_2(self, capsys):
        assert main(["run", "-c", "/no/such/file.yaml"]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, BASE_YAML.replace("- rc-ddf", "- mac"))
        assert main(["run", "-c", path]) == 2

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        rc = main(["run", "-c", write_cfg(tmp_path), "-o", "/no/such/dir/out.csv"])
        assert rc == 3
        assert "cannot write" in capsys.readouterr().err

    def test_snr_override_forms(self, tmp_path, capsys):
        path = write_cfg(tmp_path)
        assert main(["run", "-c", path, "--snr-db", "0:10:5", "--bounds-only"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 2 * 3
        assert main(["run", "-c", path, "--snr-db", "0,10", "--bounds-only"]) == 0

    def test_snr_range_matches_config_mapping(self, tmp_path, monkeypatch):
        """--snr-db a:b:c builds the grid of the {start, stop, step} mapping."""
        seen = []
        monkeypatch.setattr(cli, "run_experiment", lambda cfg: seen.append(cfg) or [])
        assert main(["run", "-c", write_cfg(tmp_path), "--snr-db", "0:1:0.1"]) == 0
        mapping = config_from_dict(
            {"strategies": ["mac"], "snr_db": {"start": 0, "stop": 1, "step": 0.1}}
        )
        assert seen[0].snr_db == mapping.snr_db
        assert len(mapping.snr_db) == 11

    def test_ceiling_warning_per_flagged_point(self, tmp_path, capsys):
        """One stderr line per averaged point stopped at its ceiling."""
        path = write_cfg(tmp_path)
        args = ["run", "-c", path, "--snr-db", "0,30", "--trial-ceiling", "4000"]
        assert main(args + ["--per-user-rows"]) == 0
        captured = capsys.readouterr()
        rows = [line.split(",") for line in captured.out.splitlines()[1:]]
        flagged = [r for r in rows if r[1] == "avg" and r[9] == "1"]
        reached = [r for r in rows if r[1] == "avg" and r[9] == "0"]
        assert flagged and reached
        warnings = captured.err.splitlines()
        assert len(warnings) == len(flagged)
        for row, line in zip(flagged, warnings):
            events = round(float(row[4]) * int(row[8]))
            assert line == (
                f"warning: {row[0]} at {float(row[2]):g} dB stopped at the trial "
                f"ceiling: {events} of 50 target events in {row[8]} trials"
            )

    def test_no_warning_when_the_point_reaches_its_target(self, tmp_path, capsys):
        args = ["run", "-c", write_cfg(tmp_path), "--snr-db", "0", "--trial-ceiling", "4000"]
        assert main(args + ["--strategies", "mac"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1].endswith(",0")
        assert captured.err == ""

    def test_trial_ceiling_below_the_cell_count_exits_2(self, tmp_path, capsys):
        # 2 placements x 3 users = 6 cells need at least one trial each
        path = write_cfg(tmp_path)
        assert main(["run", "-c", path, "--trial-ceiling", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: trial_ceiling 5 is below one trial per cell")
        assert "2 placements x 3 users = 6" in err
        assert main(["run", "-c", path, "--trial-ceiling", "5", "--bounds-only"]) == 0

    def test_bad_snr_override_exits_2(self, tmp_path, capsys):
        assert main(["run", "-c", write_cfg(tmp_path), "--snr-db", "5:1:2"]) == 2

    def test_strategy_subset(self, tmp_path, capsys):
        rc = main(["run", "-c", write_cfg(tmp_path), "--strategies", "mac"])
        assert rc == 0
        body = capsys.readouterr().out.splitlines()[1:]
        assert all(line.startswith("mac,") for line in body)

    def test_unknown_strategy_subset_exits_2(self, tmp_path, capsys):
        assert main(["run", "-c", write_cfg(tmp_path), "--strategies", "uc9-af"]) == 2

    def test_bounds_only_leaves_blank_estimates(self, tmp_path, capsys):
        assert main(["run", "-c", write_cfg(tmp_path), "--bounds-only"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[4] == "" and row[8] == "0"

    def test_optimized_multihop_bounds_at_unit_rate(self, tmp_path, capsys):
        """uc4-ddf's theta search reaches 2^300 on its last stage, whose
        fourth power overflows Python's float power; the run still
        writes finite bounds."""
        text = BASE_YAML.replace("num_users: 3", "num_users: 4").replace("rate: 0.25", "rate: 1.0")
        text = text.replace("  - mac\n  - rc-ddf\n", "  - uc4-ddf\n") + "bounds:\n  optimize: true\n"
        assert main(["run", "-c", write_cfg(tmp_path, text), "--bounds-only"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 2
        for row in rows:
            lower, upper = (float(x) for x in row.split(",")[6:8])
            assert 0.0 < lower <= upper < math.inf

    def test_byte_identical_across_workers_and_reruns(self, tmp_path):
        path = write_cfg(tmp_path)
        outs = []
        for i, workers in enumerate((1, 2, 1)):
            out = tmp_path / f"run{i}.csv"
            rc = main(
                ["run", "-c", path, "-o", str(out), "--workers", str(workers)]
            )
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]


class TestCliExportPlacements:
    def test_stdout(self, tmp_path, capsys):
        rc = main(["export-placements", "-c", write_cfg(tmp_path)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "placement,node,x,y"
        # two placements, each destination + relay + three users
        assert len(lines) == 1 + 2 * 5
        assert lines[1].split(",")[1] == "d"

    def test_file_and_determinism(self, tmp_path, capsys):
        path = write_cfg(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["export-placements", "-c", path, "-o", str(a)]) == 0
        assert main(["export-placements", "-c", path, "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_placements(self, tmp_path, capsys):
        path = write_cfg(tmp_path)
        assert main(["export-placements", "-c", path]) == 0
        first = capsys.readouterr().out
        assert main(["export-placements", "-c", path, "--seed", "6"]) == 0
        second = capsys.readouterr().out
        assert first != second
