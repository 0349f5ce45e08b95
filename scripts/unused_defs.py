"""Report ``src/`` definitions that nothing but a test calls.

    python3 scripts/unused_defs.py

Every function, method and class defined under ``src/`` is looked up among
the code references of the ``.py`` files of ``src``, ``bench``, ``examples``,
``benchmarks`` and ``scripts`` (this file left out).  A reference is a name
(``ast.Name``), an attribute (``ast.Attribute``), a ``from ... import`` of the
name, or a string constant equal to it (``getattr(obj, "name")``, a table of
method names).  Docstrings, comments and prose do not refer to code: a
definition that only they name is reported.  Neither does a re-export: a
package ``__init__.py``'s ``from ... import`` lines and every ``__all__``
entry are left out.  A definition with no reference is reached by no paper
table, example, benchmark, script or other library code, so it is surface
kept alive by ``tests/`` alone.  Dunders are skipped: the interpreter calls
them.

Each such name must either go or be listed in ``KEEP`` with the reason it
stays.  The run exits 1 on an unlisted name, and on a ``KEEP`` entry that is
now referenced or gone (its reason no longer holds, so the entry goes); else 0.
"""

from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "bench", "examples", "benchmarks", "scripts")

KEEP: Dict[str, str] = {
    "RatioSchedulePolicy": "ROADMAP item 3 decides it with the ratio controller",
    "build_model": "the model zoo's lookup by name",
    "list_models": "the model zoo's lookup by name",
    "cluster_series": "a key of the count-schema golden",
    "utilization": "a field of the count-schema golden's window stats",
    "executed_ratio": "a field of the count-schema golden's window stats",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _prose(tree: ast.AST) -> Set[int]:
    """ids of the string constants that refer to no code: docstrings (and any
    other bare string statement) and ``__all__`` entries."""
    skipped: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            skipped.add(id(node.value))
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
            else []
        )
        if any(getattr(target, "id", None) == "__all__" for target in targets):
            skipped.update(id(leaf) for leaf in ast.walk(node.value))
    return skipped


def references(tree: ast.AST, package_init: bool) -> Iterator[str]:
    """Every name ``tree``'s code refers to, once per reference."""
    prose = _prose(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom) and not package_init:
            yield from (alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in prose and node.value.isidentifier()
        ):
            yield node.value


def scan(root: Path) -> Tuple[List[Tuple[str, str, int]], List[str]]:
    """``(unused, stale)``: unlisted definitions with no reference as
    ``(name, file, line)``, and ``KEEP`` names now referenced or gone."""
    me = Path(__file__).resolve()
    used: Counter = Counter()
    defs: List[Tuple[str, str, int]] = []
    for top in SCANNED:
        for path in sorted((root / top).rglob("*.py")):
            if path.resolve() == me:
                continue
            rel = str(path.relative_to(root))
            tree = ast.parse(path.read_text(), rel)
            used.update(references(tree, path.name == "__init__.py"))
            if top == "src":
                defs.extend(
                    (node.name, rel, node.lineno)
                    for node in ast.walk(tree) if isinstance(node, _DEFS)
                )
    unused = [
        (name, rel, line) for name, rel, line in defs
        if not used[name] and name not in KEEP and not name.startswith("__")
    ]
    defined = {name for name, _, _ in defs}
    stale = sorted(name for name in KEEP if used[name] or name not in defined)
    return unused, stale


def main() -> int:
    unused, stale = scan(ROOT)
    for name, path, line in unused:
        print(f"{path}:{line}: {name} is used nowhere outside tests/")
    for name in stale:
        print(f"KEEP[{name!r}] is stale: the name is used outside its definition (or gone)")
    return 1 if unused or stale else 0


if __name__ == "__main__":
    sys.exit(main())
