"""Count each module's code lines: lines without blanks, comments or docstrings.

    python tools/code_lines.py [FILE ...]

With no arguments it counts src/kostant/*.py. A line counts when a token
other than a comment, a line break or an indent covers it (a string that
spans lines covers each of them), and no docstring covers it: the first
statement of a module, class or function, when that statement is a
string. Prints one `count path` line per module, as `wc -l` does, then
the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    with tokenize.open(path) as fh:
        source = fh.read()
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> None:
    root = Path(__file__).resolve().parent.parent
    paths = [Path(a) for a in argv] or sorted((root / "src" / "kostant").glob("*.py"))
    total = 0
    for path in paths:
        n = code_lines(path)
        total += n
        print(f"{n:5d} {path if argv else path.relative_to(root)}")
    print(f"{total:5d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
