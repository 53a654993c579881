"""Reach census: which code of src/drinfeld the production runs execute.

Runs, in one process under sys.settrace, `drinfeld verify`, five
`drinfeld table` variants (default, --format json, --format csv,
--q 4 --modulus t^2+t+1 --range 30, --q 3 --modulus t^2+t), then
bench/workloads.py's warm() and every operation of every workload at seeds
1-3, each checked as bench/run.py checks it.  It prints

- the top-level functions and methods of src/drinfeld that are never
  entered, with their line counts (decorators to last line), and
- the statements never run inside the entered ones: a statement counts as
  run when a line event falls on one of its own lines (a compound
  statement owns its header, up to its first nested statement).

Run from anywhere, with no arguments:

    python tests/reach_census.py

It only reads bench/; it is not a test module, so pytest does not collect
it.
"""

import ast
import contextlib
import io
import runpy
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "drinfeld"

CLI_RUNS = [
    ["verify"],
    ["table"],
    ["table", "--format", "json"],
    ["table", "--format", "csv"],
    ["table", "--q", "4", "--modulus", "t^2+t+1", "--range", "30"],
    ["table", "--q", "3", "--modulus", "t^2+t"],
]
SEEDS = (1, 2, 3)


class Recorder:
    """A sys.settrace hook that records, for the files of the package, the
    first line of every code object entered and every line run."""

    def __init__(self, files):
        self.files = files
        self.entered = set()    # (file, co_firstlineno)
        self.lines = set()      # (file, line)

    def __call__(self, frame, event, arg):
        code = frame.f_code
        name = code.co_filename
        if name not in self.files:
            return None
        self.entered.add((name, code.co_firstlineno))
        lines = self.lines

        def local(frame, event, arg):
            if event == "line":
                lines.add((name, frame.f_lineno))
            return local
        return local


def production_runs():
    """Every run of the census, untraced code outside the package aside."""
    for argv in CLI_RUNS:
        sys.argv = ["drinfeld"] + argv
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                runpy.run_module("drinfeld", run_name="__main__")
            except SystemExit as exc:
                if exc.code:
                    raise RuntimeError("drinfeld %s exited %s"
                                       % (" ".join(argv), exc.code))
    import workloads
    workloads.warm()
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            _, ops = workloads.build_round(workload, seed)
            for op in ops:
                ok, _ = op.check(op.run())
                if not ok:
                    raise RuntimeError("%s seed %d: %s failed"
                                       % (workload, seed, op.label))


def _start(node):
    return min([d.lineno for d in getattr(node, "decorator_list", ())]
               + [node.lineno])


def functions(tree):
    """(qualified name, node) for every top-level function and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield "%s.%s" % (node.name, item.name), item


def statements(node):
    """Every statement and except clause nested in node, bare string
    expressions (docstrings) aside."""
    for field in ("body", "orelse", "finalbody", "handlers"):
        for child in getattr(node, field, ()):
            if not (isinstance(child, ast.Expr)
                    and isinstance(child.value, ast.Constant)
                    and isinstance(child.value.value, str)):
                yield child
            yield from statements(child)


def own_lines(stmt):
    """The lines of stmt that are not lines of a nested statement."""
    inner = [c.lineno for field in ("body", "orelse", "finalbody", "handlers")
             for c in getattr(stmt, field, ())]
    end = min(inner) if inner else stmt.end_lineno + 1
    return range(_start(stmt), end)


def census(rec):
    """(never entered: [(file, line, name, lines)],
    unrun: [(file, line, function, text)])."""
    never, unrun = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        name = str(path)
        source = path.read_text()
        text = source.splitlines()
        rel = path.relative_to(PACKAGE)
        for qual, node in functions(ast.parse(source)):
            start = _start(node)
            if (name, start) not in rec.entered:
                never.append((rel, start, qual, node.end_lineno - start + 1))
                continue
            for stmt in statements(node):
                if not any((name, n) in rec.lines for n in own_lines(stmt)):
                    unrun.append((rel, stmt.lineno, qual,
                                  text[stmt.lineno - 1].strip()))
    return never, unrun


def main():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    files = {str(p) for p in PACKAGE.rglob("*.py")}
    rec = Recorder(files)
    start = time.perf_counter()
    sys.settrace(rec)
    try:
        production_runs()
    finally:
        sys.settrace(None)
    elapsed = time.perf_counter() - start
    never, unrun = census(rec)
    print("never entered: %d functions, %d lines"
          % (len(never), sum(n for *_, n in never)))
    for rel, line, qual, n in never:
        print("  %s:%d %s (%d lines)" % (rel, line, qual, n))
    print("unrun statements inside entered functions: %d" % len(unrun))
    for rel, line, qual, stmt in unrun:
        print("  %s:%d %s: %s" % (rel, line, qual, stmt))
    print("traced runs took %.1f s" % elapsed, file=sys.stderr)


if __name__ == "__main__":
    main()
