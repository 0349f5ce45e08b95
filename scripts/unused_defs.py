"""Report ``src/`` definitions that nothing but a test calls.

    python3 scripts/unused_defs.py

Every function, method and class defined under ``src/`` is looked up in one
word count over the ``.py`` files of ``src``, ``bench``, ``examples``,
``benchmarks`` and ``scripts`` (this file left out).  A name that occurs
exactly once occurs only where it is defined: no paper table, example,
benchmark, script or other library code reaches it, so it is surface kept
alive by ``tests/`` alone.  Dunders are skipped: the interpreter calls them.

Each such name must either go or be listed in ``KEEP`` with the reason it
stays.  The run exits 1 on an unlisted name, and on a ``KEEP`` entry that is
now used elsewhere (its reason no longer holds, so the entry goes); else 0.
"""

from __future__ import annotations

import ast
import re
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "bench", "examples", "benchmarks", "scripts")

KEEP: Dict[str, str] = {
    "RatioSchedulePolicy": "ROADMAP item 3 decides it with the ratio controller",
    "for_model": "tests read one model's served latencies out of a multi-model run",
    "promotions": "tests read warm-spare promotions out of a cluster's scale events",
    "with_bits": "tests re-target a calibrated scale grid to another bitwidth",
    "num_parameters": "tests read a model's size through it",
    "calibration_batch": "test fixtures take their calibration images through it",
    "cluster_series": "a key of the count-schema golden",
}


def scan(root: Path) -> Tuple[List[Tuple[str, str, int]], List[str]]:
    """``(unused, stale)``: unlisted single-occurrence definitions as
    ``(name, file, line)``, and ``KEEP`` names that no longer occur once."""
    me = Path(__file__).resolve()
    words: Counter = Counter()
    defs: List[Tuple[str, str, int]] = []
    for top in SCANNED:
        for path in sorted((root / top).rglob("*.py")):
            if path.resolve() == me:
                continue
            text = path.read_text()
            words.update(re.findall(r"\w+", text))
            if top == "src":
                rel = str(path.relative_to(root))
                defs.extend(
                    (node.name, rel, node.lineno)
                    for node in ast.walk(ast.parse(text, rel))
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                )
    unused = [
        (name, rel, line) for name, rel, line in defs
        if words[name] == 1 and name not in KEEP and not name.startswith("__")
    ]
    stale = sorted(name for name in KEEP if words[name] != 1)
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
