"""``scripts/unused_defs.py``: the scan that keeps test-only surface out of ``src/``.

The repository itself must pass; on a planted tree an unused definition is
reported and a ``KEEP`` entry whose name is used elsewhere is reported stale;
``main`` exits 1 on either.  The parameter pass reports a defaulted
parameter that only ``tests/`` passes, and a stale ``PARAM_KEEP`` entry.  Only code refers to a definition: a name, an
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
    assert len(unused_defs.PARAM_KEEP) <= 15
    assert all(reason.strip() for reason in unused_defs.PARAM_KEEP.values())


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


# ----------------------------------------------------------------------
# The parameter pass
# ----------------------------------------------------------------------
KNOBS = (
    "def tune(x, level=1, *, mode=\"a\"):\n    return x\n\n\n"
    "class Knob:\n    def __init__(self, size, scale=2.0):\n        self.size = size\n\n"
    "    def turn(self, by=1):\n        return by\n\n"
    "    def _hidden(self, flag=False):\n        return flag\n\n\n"
    "def _private(flag=False):\n    return flag\n"
)


@pytest.fixture
def knobs(planted, monkeypatch):
    """``tune``, ``Knob`` and ``Knob.turn`` are called from an example with
    no option; ``tests/`` passes every one of them."""
    monkeypatch.setattr(unused_defs, "PARAM_KEEP", {})
    (planted / "src" / "pkg" / "knobs.py").write_text(KNOBS)
    (planted / "examples" / "knobs_demo.py").write_text(
        "from pkg.knobs import Knob, tune\n\ntune(0)\nKnob(3).turn()\n"
    )
    (planted / "tests" / "test_knobs.py").write_text(
        "from pkg.knobs import Knob, _private, tune\n\n"
        "tune(0, 2, mode=\"b\")\nKnob(3, scale=1.0).turn(by=2)\n"
        "Knob(3)._hidden(flag=True)\n_private(flag=True)\n"
    )
    return planted


ALL_KNOBS = [
    ("tune.level", "src/pkg/knobs.py", 1),
    ("tune.mode", "src/pkg/knobs.py", 1),
    ("Knob.scale", "src/pkg/knobs.py", 6),
    ("Knob.turn.by", "src/pkg/knobs.py", 9),
]


def test_a_parameter_only_tests_pass_is_reported(knobs):
    """Private functions and methods are not checked; an ``__init__`` is
    keyed by its class, a method by ``Class.method``."""
    assert unused_defs.scan_parameters(knobs) == (ALL_KNOBS, [])


def test_a_function_with_no_call_site_is_not_checked(knobs):
    """A function only referred to as a value (a callback, a table entry)
    has no call whose arguments could be read."""
    (knobs / "examples" / "knobs_demo.py").write_text(
        "from pkg.knobs import Knob, tune\n\nHANDLERS = [tune, Knob]\n"
    )
    assert unused_defs.scan_parameters(knobs) == ([], [])


@pytest.mark.parametrize("call, cleared", [
    ("tune(0, level=2)", "tune.level"),
    ("tune(0, 2)", "tune.level"),
    ("tune(0, mode='b')", "tune.mode"),
    ("Knob(3, 1.0)", "Knob.scale"),
    ("Knob(3).turn(2)", "Knob.turn.by"),
    ("functools.partial(tune, level=2)(0)", "tune.level"),
], ids=["keyword", "position", "keyword-only", "init position", "method position", "partial"])
def test_passing_it_outside_tests_clears_it(knobs, call, cleared):
    """By keyword, or by position with ``self`` left out of the count."""
    (knobs / "examples" / "more.py").write_text(f"import functools\n\n{call}\n")
    unpassed, stale = unused_defs.scan_parameters(knobs)
    assert unpassed == [entry for entry in ALL_KNOBS if entry[0] != cleared]
    assert stale == []


@pytest.mark.parametrize("call", ["tune(*args)", "tune(0, **options)"], ids=["*", "**"])
def test_a_splat_passes_every_parameter(knobs, call):
    (knobs / "examples" / "more.py").write_text(call + "\n")
    unpassed, _ = unused_defs.scan_parameters(knobs)
    assert [key for key, _, _ in unpassed] == ["Knob.scale", "Knob.turn.by"]


def test_a_passing_call_in_src_counts(knobs):
    """Library code is a caller like any other scanned tree."""
    (knobs / "src" / "pkg" / "user.py").write_text(
        "from pkg.knobs import Knob\n\n\ndef build():\n    return Knob(1, scale=0.5)\n"
    )
    unpassed, _ = unused_defs.scan_parameters(knobs)
    assert "Knob.scale" not in [key for key, _, _ in unpassed]


def test_a_kept_parameter_is_not_reported(knobs, monkeypatch):
    monkeypatch.setattr(unused_defs, "PARAM_KEEP", {"tune.mode": "r", "Knob.scale": "r"})
    assert unused_defs.scan_parameters(knobs) == (
        [ALL_KNOBS[0], ALL_KNOBS[3]], [],
    )


@pytest.mark.parametrize("keep, line", [
    ({"tune.mode": "r", "Knob.scale": "r", "Knob.turn.by": "r"},
     "src/pkg/knobs.py:1: tune.level is passed nowhere outside tests/"),
    (dict.fromkeys(["tune.level", "tune.mode", "Knob.scale", "Knob.turn.by", "tune.gone"], "r"),
     "PARAM_KEEP['tune.gone'] is stale: the parameter is passed (or gone)"),
], ids=["unpassed", "stale"])
def test_main_fails_on_an_unpassed_parameter_or_a_stale_entry(
    knobs, monkeypatch, capsys, keep, line
):
    """With every finding listed the run passes; an unlisted parameter, or
    a ``PARAM_KEEP`` entry whose parameter is gone, fails it."""
    monkeypatch.setattr(unused_defs, "ROOT", knobs)
    monkeypatch.setattr(unused_defs, "KEEP", dict.fromkeys(
        ["Lonely", "helper", "_hidden", "_private"], "r"
    ))
    monkeypatch.setattr(unused_defs, "PARAM_KEEP", dict.fromkeys(
        ["tune.level", "tune.mode", "Knob.scale", "Knob.turn.by"], "r"
    ))
    assert unused_defs.main() == 0, capsys.readouterr().out
    monkeypatch.setattr(unused_defs, "PARAM_KEEP", keep)
    assert unused_defs.main() == 1
    assert capsys.readouterr().out.splitlines() == [line]


def test_a_keep_entry_for_a_now_passed_parameter_is_stale(knobs, monkeypatch):
    monkeypatch.setattr(unused_defs, "PARAM_KEEP", {"tune.level": "r"})
    (knobs / "examples" / "more.py").write_text("tune(0, level=3)\n")
    unpassed, stale = unused_defs.scan_parameters(knobs)
    assert stale == ["tune.level"]
    assert [key for key, _, _ in unpassed] == ["tune.mode", "Knob.scale", "Knob.turn.by"]
