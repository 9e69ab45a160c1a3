"""List the statements of src/impurityprobe that the tier-1 suite never runs.

  python3 scripts/unreached.py [PYTEST_ARG ...] >> "$GITHUB_STEP_SUMMARY"

Runs pytest once in this process (its output goes to stderr) with a line
tracer on the package's code, set by sys.settrace and threading.settrace,
and prints, as Markdown, each executable line no test reached: file:line
and its text.  The executable lines are those the compiled modules' code
objects map bytecode to (co_lines), less the docstrings.  Code that runs
only in a child process (the CLI's subprocess tests, forked workers) is
not seen.  It gates nothing: the exit status is 0 whatever the suite does.
"""

import ast
import glob
import os
import sys
import threading

import pytest

from code_lines import docstring_lines

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "impurityprobe")


def executable_lines(path) -> set:
    """The lines of path's code objects, nested ones too, less its docstrings."""
    with open(path, "rb") as fh:
        source = fh.read()
    lines, todo = set(), [compile(source, path, "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None, or 0: no line
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines - docstring_lines(ast.parse(source))


def tracer(prefix, hits):
    """A global trace function that records (file, line) of every line run
    in a file under prefix.  It reads only its closure, so a call during
    interpreter shutdown, when module globals are None, still works."""
    add = hits.add

    def local(frame, event, arg):
        if event == "line":
            add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        add((code.co_filename, code.co_firstlineno))  # a def line has no line event
        return local
    return call


def main(args) -> int:
    hits = set()
    trace = tracer(PACKAGE + os.sep, hits)
    threading.settrace(trace)
    sys.settrace(trace)
    stdout, sys.stdout = sys.stdout, sys.stderr
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", ROOT,
                              os.path.join(ROOT, "tests"), *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
        sys.stdout = stdout

    rows = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        rel = os.path.relpath(path, ROOT)
        rows += [f"{rel}:{n}  {text[n - 1].strip()}"
                 for n in sorted(executable_lines(path)) if (path, n) not in hits]
    print(f"### src/ lines tier-1 never runs: {len(rows)} (pytest exit status {int(status)})")
    print("```")
    print("\n".join(rows))
    print("```")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
