"""``scripts/unused_defs.py``: the scan that keeps test-only surface out of ``src/``.

The repository itself must pass; on a planted tree an unused definition is
reported and a ``KEEP`` entry whose name is used elsewhere is reported stale;
``main`` exits 1 on either.  Only code refers to a definition: a name, an
attribute, an import or a string constant such as ``getattr``'s; a docstring,
a comment, a re-export or an ``__all__`` entry does not.
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
    assert len(unused_defs.KEEP) <= 6
    assert all(reason.strip() for reason in unused_defs.KEEP.values())


def test_a_planted_unused_def_is_reported(planted, monkeypatch):
    monkeypatch.setattr(unused_defs, "KEEP", {})
    unused, stale = unused_defs.scan(planted)
    assert unused == [("Lonely", "src/pkg/mod.py", 5), ("helper", "src/pkg/mod.py", 6)]
    assert stale == []


def test_a_package_re_export_is_not_a_use(planted, monkeypatch):
    """An ``__init__.py`` import line and ``__all__`` entry re-export a name
    without using it; a call in the ``__init__.py`` body still uses one."""
    monkeypatch.setattr(unused_defs, "KEEP", {"Lonely": "r", "helper": "r"})
    (planted / "src" / "pkg" / "api.py").write_text(
        "def exported():\n    return 4\n\n\ndef configured():\n    return 5\n"
    )
    (planted / "src" / "pkg" / "__init__.py").write_text(
        "from pkg.api import (\n    configured,\n    exported,\n)\n\n"
        "DEFAULT = configured()\n\n__all__ = [\n    \"configured\",\n    \"exported\",\n]\n"
    )
    assert unused_defs.scan(planted) == ([("exported", "src/pkg/api.py", 1)], [])


@pytest.mark.parametrize("user", [
    ("examples/api_demo.py", "from pkg import exported\nexported()\n"),
    ("src/pkg/sibling.py", "from pkg.api import exported\n\nVALUE = exported()\n"),
], ids=["example", "sibling module"])
def test_a_re_export_used_elsewhere_is_a_use(planted, monkeypatch, user):
    """Only a package ``__init__.py`` loses its import lines: an example
    importing the re-export, or a plain module importing the definition,
    still uses it."""
    monkeypatch.setattr(unused_defs, "KEEP", {"Lonely": "r", "helper": "r"})
    (planted / "src" / "pkg" / "api.py").write_text("def exported():\n    return 4\n")
    (planted / "src" / "pkg" / "__init__.py").write_text(
        "from pkg.api import exported\n\n__all__ = [\"exported\"]\n"
    )
    assert unused_defs.scan(planted) == ([("exported", "src/pkg/api.py", 1)], [])
    path, text = user
    (planted / path).write_text(text)
    assert unused_defs.scan(planted) == ([], [])


def test_a_stale_keep_entry_fails_the_run(planted, monkeypatch):
    monkeypatch.setattr(unused_defs, "KEEP", {"Lonely": "r", "helper": "r"})
    assert unused_defs.scan(planted) == ([], [])
    monkeypatch.setattr(unused_defs, "KEEP", {"Lonely": "r", "helper": "r", "used": "r"})
    assert unused_defs.scan(planted) == ([], ["used"])


def test_a_keep_entry_whose_definition_is_gone_is_stale(planted, monkeypatch):
    monkeypatch.setattr(unused_defs, "KEEP", {"Lonely": "r", "helper": "r", "Removed": "r"})
    assert unused_defs.scan(planted) == ([], ["Removed"])


@pytest.mark.parametrize("keep, line", [
    ({}, "src/pkg/mod.py:5: Lonely is used nowhere outside tests/"),
    (
        {"Lonely": "r", "helper": "r", "used": "r"},
        "KEEP['used'] is stale: the name is used outside its definition (or gone)",
    ),
], ids=["unused", "stale"])
def test_main_prints_each_finding_and_exits_1(planted, monkeypatch, capsys, keep, line):
    monkeypatch.setattr(unused_defs, "ROOT", planted)
    monkeypatch.setattr(unused_defs, "KEEP", keep)
    assert unused_defs.main() == 1
    assert line in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("top", unused_defs.SCANNED)
def test_a_use_in_any_scanned_directory_counts(planted, monkeypatch, top):
    """``tests/`` is the one tree whose uses do not count."""
    monkeypatch.setattr(unused_defs, "KEEP", {})
    (planted / top).mkdir(exist_ok=True)
    (planted / top / "caller.py").write_text("from pkg.mod import Lonely\nLonely().helper()\n")
    assert unused_defs.scan(planted) == ([], [])


@pytest.mark.parametrize("text", [
    "def make():\n    return Lonely\n",
    "import pkg.mod\n\nKIND = pkg.mod.Lonely\n",
    "from pkg.mod import Lonely\n",
    "KINDS = {\"default\": \"Lonely\"}\n",
    "def run(kind: Lonely) -> None:\n    pass\n",
], ids=["name", "attribute", "import", "string constant", "annotation"])
def test_each_code_reference_is_a_use(planted, monkeypatch, text):
    """A name, an attribute, a plain module's import or a string constant."""
    monkeypatch.setattr(unused_defs, "KEEP", {})
    (planted / "examples" / "caller.py").write_text(text)
    assert unused_defs.scan(planted) == ([("helper", "src/pkg/mod.py", 6)], [])


@pytest.mark.parametrize("mention", [
    '"""Call :func:`pkg.mod.used` first, then ``Lonely().helper()``."""\n',
    "# used() and Lonely().helper() are the module's API\n",
    'def demo():\n    """used"""\n\n\nclass Demo:\n    "Lonely"\n    "helper"\n',
    '"used"\n"Lonely"\n',
    'print("call used, then Lonely().helper")\n',
], ids=["docstring", "comment", "def docstring", "bare string", "sentence"])
def test_prose_is_not_a_use(planted, monkeypatch, mention):
    """A docstring or a comment that names a definition does not keep it."""
    monkeypatch.setattr(unused_defs, "KEEP", {})
    (planted / "examples" / "demo.py").write_text(mention)
    unused, _ = unused_defs.scan(planted)
    assert [name for name, _, _ in unused] == ["used", "Lonely", "helper"]


def test_a_getattr_string_is_a_use(planted, monkeypatch):
    """``getattr(obj, "helper")`` and a table of method names call by string."""
    monkeypatch.setattr(unused_defs, "KEEP", {})
    (planted / "examples" / "demo.py").write_text(
        "from pkg.mod import Lonely, used\n\n"
        "VERBS = {\"call\": \"helper\"}\n"
        "getattr(Lonely(), VERBS[\"call\"])()\nused()\n"
    )
    assert unused_defs.scan(planted) == ([], [])


def test_an_all_entry_is_not_a_use(planted, monkeypatch):
    """``__all__`` lists a name for ``import *``; it calls nothing, in a
    package ``__init__.py`` or in a plain module."""
    monkeypatch.setattr(unused_defs, "KEEP", {"Lonely": "r"})
    (planted / "src" / "pkg" / "api.py").write_text(
        "__all__ = [\"helper\"]\n__all__ += [\"Lonely\"]\n"
    )
    assert unused_defs.scan(planted) == ([("helper", "src/pkg/mod.py", 6)], [])
