"""Count the code lines of Python files: lines that hold a token of code,
not counting docstrings, comments or blank lines.

  python3 scripts/code_lines.py [FILE ...]    (default: src/impurityprobe/*.py)

Prints the total.  `wc -l` counts a deleted comment as a smaller program;
this count moves only when code does.
"""

import ast
import glob
import os
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree) -> set:
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path) -> int:
    with open(path, "rb") as fh:
        source = fh.read()
    docs = docstring_lines(ast.parse(source))
    with open(path, "rb") as fh:
        code = {line for tok in tokenize.tokenize(fh.readline) if tok.type not in SKIP
                for line in range(tok.start[0], tok.end[0] + 1)}
    return len(code - docs)


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = sys.argv[1:] or sorted(glob.glob(os.path.join(root, "src", "impurityprobe", "*.py")))
    print(sum(code_lines(p) for p in paths))
