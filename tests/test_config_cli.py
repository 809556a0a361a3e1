"""Tests for YAML configuration loading and the command line front end."""

import math
from pathlib import Path

import pytest
import yaml

from tdcoop import cli
from tdcoop.cli import main
from tdcoop.config import ConfigError, config_from_dict, load_config
from tdcoop.harness import ExperimentConfig
from tdcoop.network import GeometryParams
from tdcoop.power import PowerConfig
from tdcoop.strategies import parse_strategy

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
    def test_readme_config_block_is_accepted(self):
        """README's example config parses and passes every check."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("### Config file\n", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
        cfg = config_from_dict(yaml.safe_load(block))
        assert [s.name for s in cfg.strategies] == ["mac", "rc-ddf", "uc2-ddf", "uc3-ddf"]

    def test_minimal(self):
        """Every unset key takes the dataclass default; snr_db defaults to 0 dB."""
        cfg = config_from_dict({"strategies": ["mac"]})
        assert cfg.master_seed == 0
        assert cfg.num_placements == 100
        assert cfg.snr_db == (0.0,)
        assert cfg.strategies[0].name == "mac"
        assert cfg.geometry.num_users == 3
        # The defaults the README's config block documents.
        assert cfg.target_events == 100
        assert cfg.trial_ceiling == 10_000_000
        assert cfg.output_path is None
        assert cfg.power.rate == 0.25
        assert cfg.power.relay_power_factor == 0.5
        assert cfg.power.encode_factor == cfg.power.decode_factor == 0.0
        assert cfg == ExperimentConfig(
            geometry=GeometryParams(),
            power=PowerConfig(),
            strategies=cfg.strategies,
            snr_db=(0.0,),
        )

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

    def test_coop_sets_order_matches_the_library(self):
        """A helper list means the same strategy in YAML as in parse_strategy."""
        written = {1: [3, 2], 2: [3, 1], 3: [2, 1]}
        cfg = config_from_dict({"strategies": [{"name": "uc3-ddf", "coop_sets": written}]})
        assert cfg.strategies[0] == parse_strategy("uc3-ddf", 3, coop_sets=written)
        assert cfg.strategies[0].coop_sets == ((2, 3), (1, 3), (1, 2))

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

    def test_unwritable_output_exits_3(self, tmp_path, capsys, monkeypatch):
        """The output path is checked before the sweep starts."""
        def sweep(cfg):
            raise AssertionError("run_experiment entered with an unwritable output")

        monkeypatch.setattr(cli, "run_experiment", sweep)
        for bad in ("/no/such/dir/out.csv", str(tmp_path)):
            rc = main(["run", "-c", write_cfg(tmp_path), "-o", bad])
            assert rc == 3
            assert "cannot write" in capsys.readouterr().err

    def test_output_check_keeps_existing_file(self, tmp_path, monkeypatch):
        """The early check neither truncates an existing output nor leaves a
        new one behind when the sweep fails, and keeps a dangling symlink."""
        def sweep(cfg):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "run_experiment", sweep)
        old = tmp_path / "old.csv"
        old.write_text("previous rows\n")
        new = tmp_path / "new.csv"
        link = tmp_path / "link.csv"
        link.symlink_to("target.csv")
        for out in (old, new, link):
            assert main(["run", "-c", write_cfg(tmp_path), "-o", str(out)]) == 3
        assert old.read_text() == "previous rows\n"
        assert not new.exists()
        assert link.is_symlink()
        assert not (tmp_path / "target.csv").exists()

    def test_flags_replace_file_values(self, tmp_path, monkeypatch):
        """Each flag replaces its key's file value; --strategies picks the
        file's entries by name and keeps their settings."""
        seen = []
        monkeypatch.setattr(cli, "run_experiment", lambda cfg: seen.append(cfg) or [])
        text = BASE_YAML.replace(
            "  - rc-ddf\n", "  - rc-ddf\n  - name: uc2-ddf\n    coop_sets: {1: [2], 2: [3], 3: [1]}\n"
        )
        path = write_cfg(tmp_path, text)
        args = ["run", "-c", path, "--seed", "99", "--snr-db", "5", "--workers", "2"]
        args += ["--target-events", "7", "--trial-ceiling", "600", "--bounds-only"]
        args += ["--per-user-rows", "-o", str(tmp_path / "out.csv")]
        assert main(args + ["--strategies", "uc2-ddf,mac"]) == 0
        cfg = seen[0]
        assert cfg.master_seed == 99
        assert cfg.snr_db == (5.0,)
        assert (cfg.workers, cfg.target_events, cfg.trial_ceiling) == (2, 7, 600)
        assert cfg.bounds_only and cfg.per_user_rows
        assert cfg.output_path == str(tmp_path / "out.csv")
        assert [s.name for s in cfg.strategies] == ["uc2-ddf", "mac"]
        assert cfg.strategies[0].coop_sets == ((2,), (3,), (1,))
        assert main(["run", "-c", path]) == 0
        assert seen[1] == load_config(path)

    @pytest.mark.parametrize(
        "old,new,flags",
        (
            ("seed: 5\n", "seed: [1]\n", ["--seed", "3"]),
            ("target_events: 50\n", "target_events: many\n", ["--target-events", "5"]),
            ("trial_ceiling: 30000\n", "trial_ceiling: 5\n", ["--trial-ceiling", "600"]),
            ("snr_db: [0.0, 10.0]\n", "snr_db: [10.0, 0.0]\n", ["--snr-db", "0,10"]),
            ("seed: 5\n", "seed: 5\nworkers: 0\n", ["--workers", "1"]),
            ("seed: 5\n", "seed: 5\noutput: 5\n", ["-o", "out.csv"]),
            ("seed: 5\n", 'seed: 5\nbounds_only: "no"\n', []),
            ("seed: 5\n", "seed: 5\nper_user_rows: 1\n", ["--per-user-rows"]),
            ("  - rc-ddf\n", "  - uc9-af\n", ["--strategies", "mac"]),
        ),
        ids=(
            "seed", "target-events", "trial-ceiling", "snr-db", "workers", "output",
            "bounds-only", "per-user-rows", "unselected-strategy",
        ),
    )
    def test_flag_over_a_bad_file_value_exits_2(self, tmp_path, monkeypatch, capsys, old, new, flags):
        """The file alone must be a valid experiment: a flag that replaces
        a bad value, or a --strategies subset that skips a bad entry,
        does not hide it."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_experiment", lambda cfg: [])
        assert old in BASE_YAML
        path = write_cfg(tmp_path, BASE_YAML.replace(old, new))
        assert main(["run", "-c", path, "--bounds-only"] + flags) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out.csv").exists()

    def test_snr_range_without_a_finite_point_count_exits_2(self, tmp_path, capsys):
        """A range whose point count overflows is refused by name, from the
        flag and from the file's mapping alike."""
        mapping = BASE_YAML.replace("snr_db: [0.0, 10.0]", "snr_db: {start: 0, stop: 1.0e300, step: 1.0e-300}")
        for path, flags in (
            (write_cfg(tmp_path), ["--snr-db", "0:1e300:1e-300"]),
            (write_cfg(tmp_path, mapping, "range.yaml"), []),
        ):
            assert main(["run", "-c", path, "--bounds-only"] + flags) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: snr_db range 0:1e+300:1e-300 ") and err.count("\n") == 1

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
        path = write_cfg(tmp_path)
        assert main(["run", "-c", path, "--snr-db", "5:1:2"]) == 2
        assert main(["run", "-c", path, "--snr-db", "0,x"]) == 2
        assert "snr_db must be a number, got 'x'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["run", "-c", path, "--snr-db", "0:10"])
        assert exc.value.code == 2
        assert "start:stop:step" in capsys.readouterr().err

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

    @pytest.mark.parametrize("bounds_only", (False, True))
    def test_rate_zero_runs_every_strategy(self, tmp_path, capsys, bounds_only):
        """Rate 0 never fails: every strategy writes zero outage and zero bounds."""
        seven = ("mac", "rc-ddf", "uc2-ddf", "uc3-ddf", "rc-af", "uc2-af", "uc3-af")
        text = BASE_YAML.replace("rate: 0.25", "rate: 0").replace("  - mac\n  - rc-ddf\n", "")
        text += "".join(f"  - {name}\n" for name in seven)
        args = ["run", "-c", write_cfg(tmp_path, text), "--snr-db", "10", "--trial-ceiling", "600"]
        assert main(args + (["--bounds-only"] if bounds_only else [])) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [r[0] for r in rows] == list(seven)
        for row in rows:
            assert float(row[6]) == float(row[7]) == 0.0
            assert row[4] == ("" if bounds_only else "0")

    @pytest.mark.parametrize(
        "old,new,extra",
        (
            ("geometry:\n  num_users: 3\n", "geometry: 3\n", []),
            ("power:\n  rate: 0.25\n", "power: 0.25\n", []),
            ("strategies:", "bounds: 2\nstrategies:", []),
            ("  num_users: 3\n", "  num_users: 3\n  relay: 0.5\n", []),
            ("  num_users: 3\n", "  num_users: 3\n  relay: [0.5, 0.0, 1.0]\n", []),
            ("  num_users: 3\n", "  num_users: 3\n  destination: [0.0]\n", []),
            ("  - rc-ddf\n", "  - rc-ddf\n  - 7\n", ["--strategies", "mac"]),
            (
                "  - rc-ddf\n",
                "  - name: uc2-ddf\n    coop_sets: {1: 2, 2: 3, 3: 1}\n",
                [],
            ),
            ("strategies:\n  - mac\n  - rc-ddf\n", "strategies: mac\n", []),
            ("strategies:\n  - mac\n  - rc-ddf\n", "strategies: mac\n", ["--strategies", "mac"]),
        ),
        ids=(
            "geometry-scalar", "power-scalar", "bounds-scalar", "relay-scalar",
            "relay-triple", "destination-single", "strategy-entry-number",
            "coop-sets-scalar-helper", "strategies-string", "strategies-string-subset",
        ),
    )
    def test_malformed_config_exits_2(self, tmp_path, capsys, old, new, extra):
        assert old in BASE_YAML
        path = write_cfg(tmp_path, BASE_YAML.replace(old, new))
        assert main(["run", "-c", path, "--bounds-only"] + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if "coop_sets" in new:
            assert "helper list" in err
        if new.startswith("strategies:"):
            assert "strategies must be a list" in err

    @pytest.mark.parametrize(
        "old,new",
        (
            ("placements: 2\n", "placements: [2]\n"),
            ("  num_users: 3\n", "  num_users: 3\n  sector_radius: [1]\n"),
            ("  rate: 0.25\n", "  rate: [1]\n"),
            ("  - rc-ddf\n", "  - rc-ddf\n  - name: 5\n"),
            ("seed: 5\n", 'seed: 5\nbounds_only: "false"\n'),
            ("seed: 5\n", "seed: 5\nper_user_rows: 1\n"),
            ("seed: 5\n", 'seed: 5\nbounds:\n  optimize: "true"\n'),
        ),
        ids=(
            "placements-list", "sector-radius-list", "rate-list", "strategy-name-number",
            "bounds-only-string", "per-user-rows-number", "optimize-string",
        ),
    )
    def test_mistyped_value_exits_2(self, tmp_path, capsys, old, new):
        """A value of the wrong type is a config error, not a traceback; a
        flag must be a YAML boolean, so a quoted "false" does not switch it on."""
        assert old in BASE_YAML
        path = write_cfg(tmp_path, BASE_YAML.replace(old, new))
        assert main(["run", "-c", path, "--bounds-only"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "old,new",
        (
            ("snr_db: [0.0, 10.0]\n", "snr_db: [.nan]\n"),
            ("snr_db: [0.0, 10.0]\n", "snr_db: [0, .inf]\n"),
            ("snr_db: [0.0, 10.0]\n", "snr_db: {start: 0, stop: .inf, step: 5}\n"),
            ("  rate: 0.25\n", "  rate: .nan\n"),
            ("  num_users: 3\n", "  num_users: 3\n  path_loss_exponent: .nan\n"),
            ("  num_users: 3\n", "  num_users: 3\n  relay: [.nan, 0]\n"),
            ("seed: 5\n", "seed: .inf\n"),
            ("seed: 5\n", "seed: 3.9\n"),
            ("placements: 2\n", "placements: 2.9\n"),
            ("placements: 2\n", "placements: true\n"),
            ("  - rc-ddf\n", "  - name: uc2-ddf\n    coop_sets: {1: [2.7], 2: [3], 3: [1]}\n"),
        ),
        ids=(
            "snr-nan", "snr-inf", "snr-range-inf", "rate-nan", "path-loss-nan", "relay-nan",
            "seed-inf", "seed-fraction", "placements-fraction", "placements-bool",
            "coop-sets-fraction",
        ),
    )
    def test_nonfinite_or_fractional_number_exits_2(self, tmp_path, capsys, old, new):
        """Numbers must be finite, and whole where the key is an integer:
        NaN and infinity are not passed on, a fraction is not truncated and
        a YAML boolean is not read as 0 or 1."""
        assert old in BASE_YAML
        path = write_cfg(tmp_path, BASE_YAML.replace(old, new))
        assert main(["run", "-c", path, "--bounds-only"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("key", ("4", "x", "0"))
    def test_coop_sets_key_outside_the_users_exits_2(self, tmp_path, capsys, key):
        """At K = 3 a coop_sets key other than 1, 2, 3 is an error, not dropped."""
        entry = f"  - name: uc2-ddf\n    coop_sets: {{1: [2], 2: [3], 3: [1], {key}: [1]}}\n"
        path = write_cfg(tmp_path, BASE_YAML.replace("  - rc-ddf\n", entry))
        assert main(["run", "-c", path, "--bounds-only"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: coop_sets keys") and err.count("\n") == 1
        assert repr(int(key) if key.isdigit() else key) in err

    @pytest.mark.parametrize("where", ("file", "flag"))
    def test_seed_must_be_below_2_to_the_53(self, tmp_path, capsys, where):
        """Seeds from 2^53 on would lose low bits in the stream key."""
        for seed, code in ((2**53, 2), (2**64, 2), (2**53 - 1, 0)):
            if where == "file":
                args = ["-c", write_cfg(tmp_path, BASE_YAML.replace("seed: 5\n", f"seed: {seed}\n"))]
            else:
                args = ["-c", write_cfg(tmp_path), "--seed", str(seed)]
            assert main(["export-placements"] + args) == code
            err = capsys.readouterr().err
            if code:
                assert err == f"error: master_seed must lie in [0, 2^53), got {seed}\n"

    def test_relay_on_the_destination_exits_2(self, tmp_path, capsys):
        """A relay at the destination has no relay-destination link: the
        config is refused instead of the bounds failing on a NaN."""
        text = BASE_YAML.replace("  num_users: 3\n", "  num_users: 3\n  relay: [0.0, 0.0]\n")
        path = write_cfg(tmp_path, text)
        assert main(["run", "-c", path, "--bounds-only"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: relay_position must differ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "geometry,strategy",
        (
            ("  relay: [1.0e100, 0.0]\n", "rc-ddf"),
            ("  sector_radius: 1.0e100\n", "mac"),
            ("  sector_radius: 1.0e-100\n  exclusion_radius: 0.0\n", "mac"),
        ),
        ids=("far-relay", "huge-sector", "tiny-sector"),
    )
    def test_link_gains_outside_the_float_range_exit_2(self, tmp_path, capsys, geometry, strategy):
        """A scale at which a link's d^gamma overflows or underflows to 0
        is refused by name instead of failing inside the sweep."""
        text = BASE_YAML.replace("  num_users: 3\n", "  num_users: 3\n" + geometry).replace(
            "  - mac\n  - rc-ddf\n", f"  - {strategy}\n"
        )
        assert main(["run", "-c", write_cfg(tmp_path, text), "--bounds-only"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sector_radius ") and err.count("\n") == 1
        assert "relay_position" in err and "path_loss_exponent" in err

    def test_destination_is_an_unknown_geometry_key(self, tmp_path, capsys):
        """The destination is the sector's apex at the origin, where the
        users are drawn around it; no key can move it away from them."""
        text = BASE_YAML.replace("  num_users: 3\n", "  num_users: 3\n  destination: [0.9, 0.3]\n")
        assert main(["run", "-c", write_cfg(tmp_path, text), "--bounds-only"]) == 2
        assert capsys.readouterr().err == "error: unknown geometry keys: ['destination']\n"

    @staticmethod
    def one_strategy_yaml(strategy, num_users, snr_db):
        return (
            BASE_YAML.replace("snr_db: [0.0, 10.0]", f"snr_db: {snr_db}")
            .replace("num_users: 3", f"num_users: {num_users}")
            .replace("  - mac\n  - rc-ddf\n", f"  - {strategy}\n")
        )

    @pytest.mark.parametrize(
        "strategy,num_users,snr",
        (("rc-ddf", 3, 4000), ("rc-ddf", 3, -4000), ("uc3-ddf", 3, 1030), ("uc10-ddf", 10, 320)),
        ids=("overflow", "underflow", "uc3-burst-cubed", "uc10-burst-tenth-power"),
    )
    def test_snr_outside_the_float_range_exits_2(self, tmp_path, capsys, strategy, num_users, snr):
        """A grid point at which the burst power K*P, raised to the
        strategy's branch count, or its inverse leaves the float range is
        refused by name instead of failing inside the sweep."""
        path = write_cfg(tmp_path, self.one_strategy_yaml(strategy, num_users, [snr]))
        assert main(["run", "-c", path, "--bounds-only"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: snr_db {snr} is out of range for {strategy}: ")
        assert err.count("\n") == 1

    def test_snr_just_inside_the_float_range_runs(self, tmp_path, capsys):
        """uc3-ddf at K = 3 takes |snr_db/10 + log10 3| <= 100: -1004 and
        995 dB run, 996 dB does not."""
        path = write_cfg(tmp_path, self.one_strategy_yaml("uc3-ddf", 3, [-1004, 995]))
        assert main(["run", "-c", path, "--bounds-only"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [r[2] for r in rows] == ["-1004", "995"]
        assert all(0.0 < float(r[6]) <= float(r[7]) < math.inf for r in rows)
        path = write_cfg(tmp_path, self.one_strategy_yaml("uc3-ddf", 3, [996]))
        assert main(["run", "-c", path, "--bounds-only"]) == 2
        assert capsys.readouterr().err.startswith("error: snr_db 996 is out of range")

    def one_rate_yaml(self, strategy, rate, snr_db):
        return self.one_strategy_yaml(strategy, 3, [snr_db]).replace("rate: 0.25", f"rate: {rate}")

    @pytest.mark.parametrize(
        "strategy,rate",
        (("uc3-ddf", 400), ("rc-ddf", 600), ("mac", 2000), ("uc3-af", 120), ("uc3-ddf", 200)),
        ids=("uc3-ddf", "rc-ddf", "mac", "uc3-af", "uc3-ddf-inf-upper"),
    )
    def test_rate_outside_the_float_range_exits_2(self, tmp_path, capsys, strategy, rate):
        """A rate at which 2^R, raised to the square of the strategy's
        branch count, leaves the float range is refused by name instead of
        overflowing inside the bounds or printing an infinite bound."""
        path = write_cfg(tmp_path, self.one_rate_yaml(strategy, rate, 10))
        assert main(["run", "-c", path, "--bounds-only"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: rate {rate} is out of range for {strategy}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "strategy,rate",
        (("uc3-ddf", 110), ("uc3-af", 110), ("rc-ddf", 249), ("mac", 996)),
        ids=("uc3-ddf", "uc3-af", "rc-ddf", "mac"),
    )
    def test_rate_just_inside_the_float_range_runs(self, tmp_path, capsys, strategy, rate):
        """L^2 R log10 2 <= 300 leaves every bound column finite."""
        path = write_cfg(tmp_path, self.one_rate_yaml(strategy, rate, 0))
        assert main(["run", "-c", path, "--bounds-only"]) == 0
        (row,) = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert 0.0 < float(row[6]) <= float(row[7]) < math.inf

    def test_theta_star_is_an_unknown_bounds_key(self, tmp_path, capsys):
        path = write_cfg(tmp_path, BASE_YAML + "bounds:\n  theta_star: 0.5\n")
        assert main(["run", "-c", path, "--bounds-only"]) == 2
        assert capsys.readouterr().err == "error: unknown bounds keys: ['theta_star']\n"

    @pytest.mark.parametrize(
        "entry",
        (
            "name: mac\n    coop_sets: {1: [2], 2: [3], 3: [1]}",
            "name: rc-af\n    coop_sets: {1: [2], 2: [3], 3: [1]}",
            "name: rc-ddf\n    coop_sets: null",
            "name: uc2-af\n    multihop_mode: per-fraction",
            "name: rc-ddf\n    multihop_mode: accumulating",
            "name: uc3-af\n    multihop_mode: accumulating",
        ),
        ids=("mac-coop-sets", "rc-af-coop-sets", "rc-ddf-null-coop-sets", "uc2-af-mode",
             "rc-ddf-mode", "uc3-af-mode"),
    )
    def test_strategy_setting_that_does_nothing_exits_2(self, tmp_path, capsys, entry):
        """coop_sets only on ucN entries, multihop_mode only on ucN-ddf, N >= 3."""
        path = write_cfg(tmp_path, BASE_YAML.replace("  - rc-ddf\n", f"  - {entry}\n"))
        assert main(["run", "-c", path, "--bounds-only"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "takes no" in err

    def test_strategy_subset_matches_canonical_names(self, tmp_path, capsys):
        """--strategies matches names as parse_strategy does: a file entry
        MAC writes rows for mac, and the flag may say mac."""
        path = write_cfg(tmp_path, BASE_YAML.replace("  - mac\n", "  - MAC\n"))
        assert main(["run", "-c", path, "--strategies", "mac", "--bounds-only"]) == 0
        body = capsys.readouterr().out.splitlines()[1:]
        assert body and all(line.startswith("mac,") for line in body)
        assert main(["run", "-c", path, "--strategies", " Rc-DDF ", "--bounds-only"]) == 0
        body = capsys.readouterr().out.splitlines()[1:]
        assert body and all(line.startswith("rc-ddf,") for line in body)

    @pytest.mark.parametrize("name", ("uc03-ddf", "uc1-af"))
    def test_second_spelling_of_a_scheme_exits_2(self, tmp_path, capsys, name):
        """uc03-ddf is not uc3-ddf under another CSV label, and uc1-af is
        no scheme: both are unknown names."""
        path = write_cfg(tmp_path, BASE_YAML.replace("  - rc-ddf\n", f"  - uc3-ddf\n  - {name}\n"))
        assert main(["run", "-c", path, "--bounds-only"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: unknown strategy name {name!r}") and err.count("\n") == 1

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

    @pytest.mark.parametrize(
        "flag",
        (
            ["--workers", "2"], ["--target-events", "5"], ["--trial-ceiling", "9"],
            ["--snr-db", "1,2"], ["--strategies", "mac"], ["--bounds-only"], ["--per-user-rows"],
        ),
        ids=lambda flag: flag[0],
    )
    def test_run_only_flag_exits_2(self, tmp_path, capsys, flag):
        """export-placements takes -c, --seed and -o only."""
        with pytest.raises(SystemExit) as exc:
            main(["export-placements", "-c", write_cfg(tmp_path)] + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_file_alone_must_be_valid(self, tmp_path, capsys):
        path = write_cfg(tmp_path, BASE_YAML.replace("seed: 5\n", "seed: [1]\n"))
        assert main(["export-placements", "-c", path, "--seed", "3"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_seed_changes_placements(self, tmp_path, capsys):
        path = write_cfg(tmp_path)
        assert main(["export-placements", "-c", path]) == 0
        first = capsys.readouterr().out
        assert main(["export-placements", "-c", path, "--seed", "6"]) == 0
        second = capsys.readouterr().out
        assert first != second
