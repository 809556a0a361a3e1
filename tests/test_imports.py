"""What each kind of process imports.

``tdcoop`` resolves its public names on first use, so a script that
builds placements or strategies loads neither the sweep engine nor
PyYAML, and a library sweep (and every spawned pool worker) skips the
config parser.  Each check runs in a fresh interpreter, because this
test process has imported everything already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tdcoop

SRC = str(Path(__file__).resolve().parent.parent / "src")


def loaded_after(statement: str, names) -> list[str]:
    """Which of names are in sys.modules after statement, in a fresh interpreter."""
    script = f"import sys\n{statement}\nprint(*(n for n in {list(names)!r} if n in sys.modules))"
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    return out.stdout.split()


SUBMODULES = tuple(
    f"tdcoop.{m}"
    for m in (
        "af", "cli", "config", "ddf", "harness", "mathcore", "mc", "network", "power", "strategies",
    )
)


@pytest.mark.parametrize(
    "statement,absent",
    (
        ("import tdcoop", ("numpy",) + SUBMODULES),
        (
            "import tdcoop.network, tdcoop.power, tdcoop.strategies",
            ("tdcoop.harness", "tdcoop.mc", "tdcoop.config", "yaml", "concurrent.futures.process"),
        ),
        ("from tdcoop import harness", ("yaml", "tdcoop.config", "tdcoop.cli")),
    ),
    ids=("package", "inputs", "library-sweep"),
)
def test_process_loads_only_what_it_uses(statement, absent):
    assert loaded_after(statement, absent) == []


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
