"""Count the code lines of Python modules.

    python tests/code_lines.py SRC [SRC ...]

Each SRC is a .py file or a directory, whose .py files are counted
recursively.  A code line is a source line that carries at least one token
outside comments, blank lines and docstrings; a docstring is a string
expression standing as the first statement of a module, class or function.
A statement that spans several lines counts each of them.  The script
prints the count per module, in path order, and the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by the docstrings of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in a module's source."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def modules(paths):
    for arg in paths:
        path = Path(arg)
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    total = 0
    for path in modules(argv):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
