"""Line counts of the ``src/mvis`` modules.

For each module and in total, prints the number of lines and the number of
code lines: lines that are not blank, not comment-only and not part of a
module, class or function docstring. Standard library only, no options::

    python3 tools/loc.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mvis"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that module, class and function docstrings span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """Lines holding a token other than a comment, outside docstrings."""
    skip = docstring_lines(ast.parse(text))
    ignored = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
               tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in ignored:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main() -> None:
    total = code_total = 0
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        n = len(text.splitlines())
        code = code_lines(text)
        total += n
        code_total += code
        print(f"{path.name:<16}{n:>7}{code:>7}")
    print(f"{'total':<16}{total:>7}{code_total:>7}")


if __name__ == "__main__":
    main()
