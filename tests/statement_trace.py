"""Gate: every statement of ``src/cluster_reduce`` is run by the Tier-1 suite.

Run from the repository root::

    python tests/statement_trace.py            # the whole suite
    python tests/statement_trace.py -k lattice # extra arguments go to pytest

The suite runs in this process under ``sys.settrace``, which makes it several
times slower. A statement is an ``ast`` statement of a module in the package,
without ``def``, ``class``, imports, ``global`` and string-only expressions
(docstrings), counted at its first line. The script prints every unreached
``file:line`` and the total, and exits 1 when pytest fails or any statement
is unreached, 0 otherwise. pytest does not collect this file, since its name
does not start with ``test_``.
"""
import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cluster_reduce"
_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
            ast.ImportFrom, ast.Global, ast.Nonlocal)


def statement_lines(path):
    """First lines of the statements of one module that count."""
    lines = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        lines.add(node.lineno)
    return lines


def main(args):
    files = {str(path): statement_lines(path) for path in sorted(PACKAGE.glob("*.py"))}
    hits = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        return local if frame.f_code.co_filename in hits else None

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(global_)
    sys.settrace(global_)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for name, lines in files.items():
        for line in sorted(lines - hits[name]):
            print(f"{Path(name).relative_to(ROOT)}:{line}")
            missed += 1
    total = sum(len(lines) for lines in files.values())
    print(f"{missed} of {total} statements unreached; pytest exit status {int(status)}")
    return int(bool(missed or status))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
