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
stays.

The parameter pass does the same for options.  It checks each defaulted
positional or keyword-only parameter of every public top-level function and
public method under ``src/``, and of each class's explicit ``__init__``
(called under the class name).  A parameter is reported when its function
has a call site in the scanned trees, matched by callee name (``f(...)`` or
``obj.f(...)``), and no such call passes it.  A call passes a parameter by
keyword, by position (``self`` excluded) or through a ``*``/``**`` splat;
``functools.partial(f, ...)`` is a call of ``f``.  Such a parameter is an
option that only tests set.  It goes, or ``PARAM_KEEP`` (keyed
``"func.param"``, ``"Class.method.param"``, ``"Class.param"`` for an
``__init__``) says why it stays.

The run exits 1 on an unlisted name or parameter, and on a ``KEEP`` or
``PARAM_KEEP`` entry that is now used or gone (its reason no longer holds,
so the entry goes); else 0.
"""

from __future__ import annotations

import ast
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

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

PARAM_KEEP: Dict[str, str] = {
    "BatchNorm2d.eps": "a normalization hyperparameter with its documented default",
    "BatchNorm2d.momentum": "a normalization hyperparameter with its documented default",
    "LayerNorm.eps": "a normalization hyperparameter with its documented default",
    "TransformerBlock.dropout": "a ViT training hyperparameter with its documented default",
    "DecoderBlock.mlp_ratio": "an architecture hyperparameter (MLP width per embedding width)",
    "TinyDecoderLM.max_seq_len": "the case-study LM's architecture, a documented default",
    "TinyDecoderLM.embed_dim": "the case-study LM's architecture, a documented default",
    "TinyDecoderLM.depth": "the case-study LM's architecture, a documented default",
    "TinyDecoderLM.num_heads": "the case-study LM's architecture, a documented default",
    "NpuLatencyModel.op_latency.low_bits": "the NPU's 2-bit extension: wider channel groups, priced per op",
    "ClusterEngine.register.executors": "real prepared-kernel executors, one per server, in a cluster",
    "requests_from_trace.payloads": "model inputs for a trace served by real executors",
    "pretrain_model.epochs": "deployment: the training budget that keys the checkpoint cache",
    "pretrain_model.cache_dir": "deployment: where checkpoints are cached",
    "pretrain_model.force": "deployment: retrain over a cached checkpoint",
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


def _trees(root: Path) -> Iterator[Tuple[str, Path, str, ast.Module]]:
    """``(top, path, relative path, tree)`` of every scanned file but this one."""
    me = Path(__file__).resolve()
    for top in SCANNED:
        for path in sorted((root / top).rglob("*.py")):
            if path.resolve() != me:
                rel = str(path.relative_to(root))
                yield top, path, rel, ast.parse(path.read_text(), rel)


def scan(root: Path) -> Tuple[List[Tuple[str, str, int]], List[str]]:
    """``(unused, stale)``: unlisted definitions with no reference as
    ``(name, file, line)``, and ``KEEP`` names now referenced or gone."""
    used: Counter = Counter()
    defs: List[Tuple[str, str, int]] = []
    for top, path, rel, tree in _trees(root):
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


Param = Tuple[str, Optional[int]]
Call = Tuple[List[ast.expr], List[ast.keyword]]


def _callee(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _defaulted(fn: ast.FunctionDef, method: bool) -> List[Param]:
    """``(name, position)`` of ``fn``'s defaulted parameters; the position is
    a call's argument index (``self`` excluded), ``None`` for keyword-only."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    params: List[Param] = [
        (arg.arg, index - method)
        for index, arg in enumerate(positional) if index >= first
    ]
    params.extend(
        (arg.arg, None)
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
        if default is not None
    )
    return params


def _functions(tree: ast.Module) -> Iterator[Tuple[str, str, ast.FunctionDef, bool]]:
    """``(callee, key, node, method)`` for every checked function: public
    top-level ones, public methods and explicit ``__init__``s."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions) and not node.name.startswith("_"):
            yield node.name, node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, functions):
                    continue
                if item.name == "__init__":
                    yield node.name, node.name, item, True
                elif not item.name.startswith("_"):
                    static = any(
                        _callee(decorator) == "staticmethod"
                        for decorator in item.decorator_list
                    )
                    yield item.name, f"{node.name}.{item.name}", item, not static


def _calls(tree: ast.AST) -> Iterator[Tuple[str, Call]]:
    """``(callee name, (args, keywords))`` of every call; a
    ``partial(f, ...)`` is also a call of ``f`` with the rest."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _callee(node.func)
        if name == "partial" and node.args and _callee(node.args[0]):
            yield _callee(node.args[0]), (node.args[1:], node.keywords)
        if name is not None:
            yield name, (node.args, node.keywords)


def _passed(params: List[Param], calls: Iterable[Call]) -> Set[str]:
    passed: Set[str] = set()
    for args, keywords in calls:
        if any(isinstance(arg, ast.Starred) for arg in args) or any(
            keyword.arg is None for keyword in keywords
        ):
            return {name for name, _ in params}
        passed.update(
            name for name, position in params
            if position is not None and position < len(args)
        )
        passed.update(keyword.arg for keyword in keywords)
    return passed


def scan_parameters(root: Path) -> Tuple[List[Tuple[str, str, int]], List[str]]:
    """``(unpassed, stale)``: unlisted defaulted parameters that no call in
    the scanned trees passes, as ``("func.param", file, line)``, and
    ``PARAM_KEEP`` entries now passed or gone."""
    calls: Dict[str, List[Call]] = {}
    checked: List[Tuple[str, str, ast.FunctionDef, bool, str]] = []
    for top, _, rel, tree in _trees(root):
        for name, call in _calls(tree):
            calls.setdefault(name, []).append(call)
        if top == "src":
            checked.extend(
                (callee, key, node, method, rel)
                for callee, key, node, method in _functions(tree)
            )
    flagged: List[Tuple[str, str, int]] = []
    for callee, key, node, method, rel in checked:
        params = _defaulted(node, method)
        if not params or callee not in calls:
            continue
        passed = _passed(params, calls[callee])
        flagged.extend(
            (f"{key}.{name}", rel, node.lineno)
            for name, _ in params if name not in passed
        )
    unpassed = [entry for entry in flagged if entry[0] not in PARAM_KEEP]
    found = {key for key, _, _ in flagged}
    stale = sorted(key for key in PARAM_KEEP if key not in found)
    return unpassed, stale


def main() -> int:
    unused, stale = scan(ROOT)
    unpassed, stale_params = scan_parameters(ROOT)
    for name, path, line in unused:
        print(f"{path}:{line}: {name} is used nowhere outside tests/")
    for name in stale:
        print(f"KEEP[{name!r}] is stale: the name is used outside its definition (or gone)")
    for key, path, line in unpassed:
        print(f"{path}:{line}: {key} is passed nowhere outside tests/")
    for key in stale_params:
        print(f"PARAM_KEEP[{key!r}] is stale: the parameter is passed (or gone)")
    return 1 if unused or stale or unpassed or stale_params else 0


if __name__ == "__main__":
    sys.exit(main())
