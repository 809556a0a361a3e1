"""Every byte-identity probe matches its committed digest.

``scripts/probe_digests.py`` hashes the output of small frozen workloads;
``scripts/probe_digests.expected`` holds the digests of the committed
code.  A refactor must keep every digest, and a change that moves a
number on purpose rewrites that file.  Float results can differ in the
last bit across numpy versions, machines and SIMD dispatch levels, so
the probes are checked only where the file's first line names the
running numpy, machine and dispatched SIMD targets.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import probe_digests  # noqa: E402

EXPECTED = ROOT / "scripts" / "probe_digests.expected"


@pytest.mark.parametrize("name", probe_digests.PROBES)
def test_probe_keeps_its_digest(name, tmp_path, spy_pool):
    """Each probe keeps its digest, and a probe run at two workers runs
    its tasks on a two-worker pool."""
    recorded = EXPECTED.read_text(encoding="utf-8").splitlines()[0]
    running = probe_digests.platform_line()
    if recorded != running:
        pytest.skip(f"digests taken with '{recorded[2:]}', running '{running[2:]}'")
    pools = spy_pool(task_trials=None, cpus=2)
    digests, workers = probe_digests.probe(name, tmp_path)
    assert set(digests) == {probe_digests.read_expected(str(EXPECTED))[name]}
    pooled = [(p["workers"], bool(p["rounds"])) for p in pools]
    assert pooled == [(2, True)] * (max(workers) > 1)
