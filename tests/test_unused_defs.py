"""``scripts/unused_defs.py``: the scan that keeps test-only surface out of ``src/``.

The repository itself must pass; on a planted tree an unused definition is
reported and a ``KEEP`` entry whose name is used elsewhere is reported stale;
``main`` exits 1 on either.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("unused_defs", ROOT / "scripts" / "unused_defs.py")
unused_defs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(unused_defs)


@pytest.fixture
def planted(tmp_path):
    """``used`` is called from an example; ``Lonely`` and ``helper`` only from
    ``tests/``, which the scan does not read; ``__call__`` is protocol."""
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text(
        "def used():\n    return 1\n\n\n"
        "class Lonely:\n    def helper(self):\n        return 2\n\n"
        "    def __call__(self):\n        return 3\n"
    )
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text("from pkg.mod import used\nused()\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from pkg.mod import Lonely\nLonely().helper()\n"
    )
    return tmp_path


def test_this_repository_passes(capsys):
    assert unused_defs.main() == 0, capsys.readouterr().out
    assert len(unused_defs.KEEP) <= 7
    assert all(reason.strip() for reason in unused_defs.KEEP.values())


def test_a_planted_unused_def_is_reported(planted, monkeypatch):
    monkeypatch.setattr(unused_defs, "KEEP", {})
    unused, stale = unused_defs.scan(planted)
    assert unused == [("Lonely", "src/pkg/mod.py", 5), ("helper", "src/pkg/mod.py", 6)]
    assert stale == []


def test_a_stale_keep_entry_fails_the_run(planted, monkeypatch):
    monkeypatch.setattr(unused_defs, "KEEP", {"Lonely": "r", "helper": "r"})
    assert unused_defs.scan(planted) == ([], [])
    monkeypatch.setattr(unused_defs, "KEEP", {"Lonely": "r", "helper": "r", "used": "r"})
    assert unused_defs.scan(planted) == ([], ["used"])
