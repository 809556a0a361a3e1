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
    skip = probe_digests.skip_reason(str(EXPECTED))
    if skip is not None:
        pytest.skip(skip)
    pools = spy_pool(task_trials=None, cpus=2)
    digests, workers = probe_digests.probe(name, tmp_path)
    assert set(digests) == {probe_digests.read_expected(str(EXPECTED))[name]}
    pooled = [(p["workers"], bool(p["rounds"])) for p in pools]
    assert pooled == [(2, True)] * (max(workers) > 1)


PLATFORM = "# numpy 0.0 test-machine TARGET"


@pytest.mark.parametrize(
    "recorded,canned,status,verdicts",
    [
        # Same platform: each digest is compared, and a DIFF fails.
        (PLATFORM, {}, 0, {"same"}),
        (PLATFORM, {"c": ["f" * 64]}, 1, {"same", "DIFF"}),
        # Another platform: nothing is compared, a DIFF passes and a
        # MISMATCH across worker counts still fails.
        ("# numpy 0.0 other-machine", {"c": ["f" * 64]}, 0, set()),
        ("# numpy 0.0 other-machine", {"a": ["0" * 64, "f" * 64]}, 1, set()),
    ],
    ids=["same", "diff", "elsewhere-diff", "elsewhere-mismatch"],
)
def test_expect_compares_only_on_its_platform(monkeypatch, capsys, tmp_path, recorded, canned, status, verdicts):
    """--expect's verdict rule, on canned digests instead of probe runs."""
    saved = {name: name * 64 for name in probe_digests.PROBES}
    expect = tmp_path / "expected.txt"
    expect.write_text(
        "\n".join([recorded] + [f"{name} {digest}  (workers 1)" for name, digest in saved.items()]) + "\n",
        encoding="utf-8",
    )
    monkeypatch.setattr(probe_digests, "platform_line", lambda: PLATFORM)
    monkeypatch.setattr(probe_digests, "probe", lambda name, tmp: (canned.get(name, [saved[name]]), (1,)))
    assert probe_digests.main(["--expect", str(expect)]) == status
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == PLATFORM
    assert lines[1].startswith("# not compared: ") == (recorded != PLATFORM)
    probes = [line for line in lines if line[0] in probe_digests.PROBES]
    assert [line[0] for line in probes] == list(probe_digests.PROBES)
    found = {v for line in probes for v in ("same", "DIFF") if f"  {v}" in line}
    assert found == verdicts
    assert any("MISMATCH" in line for line in probes) == any(len(set(d)) > 1 for d in canned.values())
