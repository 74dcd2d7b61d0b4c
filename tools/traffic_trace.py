"""List the statements of src/orderlab that the product traffic never runs.

    python3 tools/traffic_trace.py

The traffic is the timed operations of the four benchmark workloads of
perfbench/workloads.py (full size, seed 0; the CLI requests run in a
temporary directory) followed by ``orderlab check-all --budget small``.  A
line tracer records every line of src/orderlab that runs, from the import
of the package on.  Then, per module, the script prints each run of
consecutive statements that never ran, docstrings left out.  A line tracer
slows Python down many times over: the whole run takes minutes.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "orderlab"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


def traced(run):
    """Call run() under a line tracer on the package; returns the file
    name -> line numbers that ran."""
    hits = defaultdict(set)

    def line(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        if frame.f_code.co_filename.startswith(str(PACKAGE)):
            return line(frame, event, arg)
        return None

    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
    return hits


def run_traffic():
    from orderlab import checks, cli

    with tempfile.TemporaryDirectory(prefix="orderlab-trace-") as tmp:
        ops = []
        for name in workloads.WORKLOADS:
            ops += workloads.build(name, "full", 0, tmp)[1]
        ops.append(workloads.Op(label="check-all", argv=["check-all", "--budget", "small"]))
        here = os.getcwd()
        os.chdir(tmp)
        try:
            for op in ops:
                print(f"running {op.label}", file=sys.stderr)
                if op.argv is None:
                    getattr(checks, op.fn)(**op.kwargs)
                    continue
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    cli.main(list(op.argv))
        finally:
            os.chdir(here)


def _is_docstring(node):
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _statements(tree):
    """(first line, node) of every statement but the docstrings, in line
    order; a decorated definition starts at its first decorator."""
    out = []
    for node in ast.walk(tree):
        # global and nonlocal declarations compile to no code
        if (not isinstance(node, ast.stmt) or _is_docstring(node)
                or isinstance(node, (ast.Global, ast.Nonlocal))):
            continue
        decorators = [d.lineno for d in getattr(node, "decorator_list", [])]
        out.append((min(decorators + [node.lineno]), node))
    return sorted(out, key=lambda t: t[0])


def report(hits):
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        lines = hits.get(str(path), set())
        groups = []  # runs of consecutive statements that never ran
        previous_ran = True
        for first, node in _statements(ast.parse(source)):
            # a statement ran when one of its lines ran: its head, or a
            # statement nested in it
            if any(n in lines for n in range(first, node.end_lineno + 1)):
                previous_ran = True
                continue
            total += 1
            if previous_ran:
                groups.append([first, node.end_lineno])
            else:
                groups[-1][1] = max(groups[-1][1], node.end_lineno)
            previous_ran = False
        print(f"{path.name}: {len(groups)} runs of statements never ran")
        for first, last in groups:
            span = f"{first}" if first == last else f"{first}-{last}"
            print(f"  {span}: {text[first - 1].strip()}")
    print(f"{total} statements never ran")


def main():
    report(traced(run_traffic))
    return 0


if __name__ == "__main__":
    sys.exit(main())
