"""What each kind of process imports.

``tdcoop`` resolves its public names on first use, so a script that
builds placements or strategies loads neither the sweep engine nor
PyYAML, and a library sweep (and every spawned pool worker) skips the
config parser.  ``mc`` resolves ``ProcessPoolExecutor`` on first use,
so only a sweep whose round starts workers loads
``concurrent.futures.process`` and ``multiprocessing``: a one-worker
sweep, a sweep whose rounds stay below the start threshold, a
bounds-only run and ``export-placements`` load neither.  Each check runs
in a fresh interpreter, because this test process has imported
everything already.
"""

import concurrent.futures
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tdcoop
from tdcoop import mc

SRC = str(Path(__file__).resolve().parent.parent / "src")


def loaded_after(statement: str, names) -> list[str]:
    """Which of names are in sys.modules after statement, in a fresh
    interpreter (read from the last line it prints)."""
    script = f"import sys\n{statement}\nprint(*(n for n in {list(names)!r} if n in sys.modules))"
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    return out.stdout.splitlines()[-1].split()


SUBMODULES = tuple(
    f"tdcoop.{m}"
    for m in (
        "af", "cli", "config", "ddf", "harness", "mathcore", "mc", "network", "power", "strategies",
    )
)


POOL = ("concurrent.futures.process", "multiprocessing")

# A tiny rc-ddf sweep over three cells: rounds of 6,144, 18,432 and 5,424
# trials, all below the 2 * 2^20 at which two workers would start.
SWEEP = """\
from tdcoop import harness, mc
from tdcoop.network import GeometryParams, sample_placement
from tdcoop.power import PowerConfig
from tdcoop.strategies import parse_strategy
placement = sample_placement(GeometryParams(), mc.derive_stream(1, 0, 0))
harness.sweep_fixed_placement(
    parse_strategy("rc-ddf", 3), placement, PowerConfig(rate=2.0), [10.0], seed=1,
    trial_ceiling=30_000, workers={workers},
)"""

CLI = "from tdcoop.cli import main\nassert main([{args}, '-c', CFG, '-o', OUT]) == 0"

CONFIG = """\
seed: 5
placements: 2
snr_db: [0.0, 10.0]
geometry:
  num_users: 3
strategies:
  - mac
  - rc-ddf
  - uc3-af
"""


@pytest.mark.parametrize(
    "statement,absent",
    (
        ("import tdcoop", ("numpy",) + SUBMODULES),
        (
            "import tdcoop.network, tdcoop.power, tdcoop.strategies",
            ("tdcoop.harness", "tdcoop.mc", "tdcoop.config", "yaml") + POOL,
        ),
        ("from tdcoop import harness", ("yaml", "tdcoop.config", "tdcoop.cli") + POOL),
        (SWEEP.format(workers=1), POOL),
        (SWEEP.format(workers=2), POOL),
        (CLI.format(args="'run', '--bounds-only'"), POOL),
        (CLI.format(args="'export-placements'"), POOL),
    ),
    ids=(
        "package", "inputs", "library-sweep", "one-worker-sweep", "rounds-below-the-pool",
        "bounds-only-run", "export-placements",
    ),
)
def test_process_loads_only_what_it_uses(statement, absent, tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(CONFIG)
    setup = f"CFG, OUT = {str(cfg)!r}, {str(tmp_path / 'out.csv')!r}\n"
    assert loaded_after(setup + statement, absent) == []


def test_pool_class_resolves_on_first_use():
    assert mc.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor
    assert not hasattr(mc, "no_such_name")


def test_public_names_resolve_to_their_defining_module():
    namespace = {}
    exec("from tdcoop import *", namespace)
    for name in tdcoop.__all__:
        value = getattr(tdcoop, name)
        assert namespace[name] is value, name
        assert name in dir(tdcoop), name
        if callable(value):
            assert value.__name__ == name, name
            assert getattr(sys.modules[value.__module__], name) is value, name
    assert tdcoop.CSV_HEADER is sys.modules["tdcoop.harness"].CSV_HEADER
    with pytest.raises(AttributeError):
        tdcoop.no_such_name
