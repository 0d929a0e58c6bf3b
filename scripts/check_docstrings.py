#!/usr/bin/env python
"""Docstring lint for the library, with zero third-party dependencies.

A stdlib-`ast` stand-in for the pydocstyle subset this repo enforces
(the container has no ruff/pydocstyle wheel, and CI may not either):

* **Every module** under ``src/repro`` must open with a docstring
  (pydocstyle D100/D104).
* In the **strict surfaces** — ``repro.obs``, ``repro.cache``,
  ``repro.parallel``, ``repro.faults``, ``repro.perf`` — every public
  class, public function, and public
  method must carry a docstring (D101/D102/D103).  Private names
  (``_underscore``), dunders other than ``__init__``'s class, and
  ``@overload`` stubs are exempt; a public ``__init__`` is covered by
  its class docstring.

Equivalent ruff configuration (for environments that have it) lives in
``pyproject.toml`` under ``[tool.ruff.lint]``.

Usage::

    python scripts/check_docstrings.py            # lint src/repro
    python scripts/check_docstrings.py --list     # show strict surfaces
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"

#: Modules/packages (relative to src/repro) whose *public API* — not
#: just the module — must be fully docstring'd.
STRICT = (
    "obs",
    "cache.py",
    "parallel.py",
    "faults",
    "perf.py",
)


def is_public(name: str) -> bool:
    return not name.startswith("_")


def is_strict(path: Path) -> bool:
    relative = path.relative_to(PACKAGE_ROOT)
    return any(relative == Path(entry) or Path(entry) in relative.parents
               for entry in STRICT)


def _missing_in_class(node: ast.ClassDef, module: str) -> list[str]:
    problems = []
    if ast.get_docstring(node) is None:
        problems.append(f"{module}: class {node.name} has no docstring")
    for child in node.body:
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not is_public(child.name) or child.name == "__init__":
            continue
        if ast.get_docstring(child) is None:
            problems.append(f"{module}: method {node.name}.{child.name} "
                            f"has no docstring (line {child.lineno})")
    return problems


def check_file(path: Path) -> list[str]:
    """All docstring violations in one source file."""
    module = str(path.relative_to(REPO_ROOT))
    tree = ast.parse(path.read_text(), filename=module)
    problems = []
    if ast.get_docstring(tree) is None:
        problems.append(f"{module}: module has no docstring")
    if not is_strict(path):
        return problems
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and is_public(node.name):
            problems.extend(_missing_in_class(node, module))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and is_public(node.name):
            if ast.get_docstring(node) is None:
                problems.append(f"{module}: function {node.name} has no "
                                f"docstring (line {node.lineno})")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true",
                        help="print the strict surfaces and exit")
    args = parser.parse_args(argv)
    if args.list:
        for entry in STRICT:
            print(f"src/repro/{entry}")
        return 0

    files = sorted(PACKAGE_ROOT.rglob("*.py"))
    problems: list[str] = []
    for path in files:
        problems.extend(check_file(path))
    for problem in problems:
        print(problem, file=sys.stderr)
    status = "FAILED" if problems else "OK"
    print(f"docstring-check: {status} — {len(files)} file(s), "
          f"{len(problems)} violation(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
