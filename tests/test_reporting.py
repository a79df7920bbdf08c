"""Artifact writers: atomic writes keep the mode a plain open() gives."""

import os
import stat

import pytest

from fdelab.reporting import write_csv, write_json


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_artifacts_get_the_umask_mode(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        write_json(str(tmp_path / "report.json"), {"a": 1})
        write_csv(str(tmp_path / "table.csv"), ["x"], [[1.0]])
        with open(tmp_path / "plain.txt", "w", encoding="utf-8") as fh:
            fh.write("x")
    finally:
        os.umask(old)
    for name in ("report.json", "table.csv", "plain.txt"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode, name
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "plain.txt", "report.json", "table.csv",
    ]
