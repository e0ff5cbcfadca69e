"""List the lines of crgx that the identity corpus never runs.

    python tools/reach.py

Writes the `tools/identity.py` corpus into a temporary directory with this
checkout's `src/crgx`, under `sys.settrace` on crgx frames only, and prints
per module, grouped by function, every executable line that no command
reached. A function's header (its decorators and `def` line) counts as
reached only when the function itself was called, not when the enclosing
frame ran the `def` at import. A line inside a `raise` statement is marked
`raise`: those are the error paths the corpus does not provoke. The total
line sums every module: "N of M lines not reached, R of them in raise
statements". The last line, "exports no command reaches: ...", names each
function of `crgx.__all__` that the corpus never called; a decorated export
counts by the function its decorator wraps.
"""

from __future__ import annotations

import ast
import inspect
import os
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "crgx"


def _header_ends(tree: ast.AST) -> dict[int, int]:
    """The first line of each def (its first decorator) mapped to the line
    its body starts on."""
    return {min([node.lineno] + [d.lineno for d in node.decorator_list]): node.body[0].lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _line_owners(code, owner: str, out: dict[int, str], ends: dict[int, int],
                 headers: dict[int, int]) -> None:
    """Map each executable line of `code` and its nested code objects to
    the innermost named function; comprehensions and lambdas count as the
    function that holds them. A named function's header lines (the keys of
    `headers`) go to it too, with its first line as the value: the
    enclosing frame runs them, so they count only when it is called."""
    named = not code.co_name.startswith("<") or code.co_name == "<module>"
    if named:
        owner = getattr(code, "co_qualname", code.co_name)
    for start, end, line in code.co_lines():
        if line is not None and start < end:
            out[line] = owner
    if named and code.co_firstlineno in ends:
        for line in range(code.co_firstlineno, ends[code.co_firstlineno]):
            if line in out:
                out[line], headers[line] = owner, code.co_firstlineno
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            _line_owners(const, owner, out, ends, headers)


def _raise_lines(tree: ast.AST) -> set[int]:
    return {line for node in ast.walk(tree) if isinstance(node, ast.Raise)
            for line in range(node.lineno, node.end_lineno + 1)}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "tools"))
    import identity

    reached: dict[str, set[int]] = defaultdict(set)
    called = set()
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, arg):
        reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        called.add(frame.f_code)
        return local(frame, event, arg)

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="crgx-reach-") as tmp:
        sys.settrace(tracer)
        try:
            identity.write_corpus(Path(tmp) / "corpus")
        finally:
            sys.settrace(None)
            os.chdir(cwd)

    entered = {(code.co_filename, code.co_firstlineno) for code in called}
    missed_total = lines_total = raise_total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        tree = ast.parse(source)
        owners: dict[int, str] = {}
        headers: dict[int, int] = {}
        _line_owners(compile(source, str(path), "exec"), "<module>", owners,
                     _header_ends(tree), headers)
        raises = _raise_lines(tree)
        ran = {line for line in reached[str(path)] if line not in headers}
        ran.update(line for line, first in headers.items() if (str(path), first) in entered)
        missed = sorted(set(owners) - ran)
        print(f"{path.relative_to(ROOT)}: {len(missed)} of {len(owners)} lines not reached")
        missed_total += len(missed)
        lines_total += len(owners)
        raise_total += len(raises.intersection(missed))
        text = source.splitlines()
        by_owner: dict[str, list[int]] = defaultdict(list)
        for line in missed:
            by_owner[owners[line]].append(line)
        for owner, lines in by_owner.items():
            print(f"  {owner}")
            for line in lines:
                mark = "raise" if line in raises else ""
                print(f"    {line:4d} {mark:5s} {text[line - 1].strip()}")
    print(f"{missed_total} of {lines_total} lines not reached, "
          f"{raise_total} of them in raise statements")
    import crgx
    exports = [name for name in crgx.__all__ if inspect.isfunction(getattr(crgx, name))]
    print("exports no command reaches: " + ", ".join(
        name for name in sorted(exports)
        if inspect.unwrap(getattr(crgx, name)).__code__ not in called))
    return 0


if __name__ == "__main__":
    sys.exit(main())
