"""Print the code lines of each src/hyqa module and their total.

A code line holds some token that is not a comment and is not part of a
docstring (the first statement of a module, class or function, when that
statement is a string). Blank lines and comment-only lines do not count.

Run: python tools/code_lines.py
"""

import ast
import tokenize
from pathlib import Path

SKIPPED = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    with open(path, "rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    lines = {
        line
        for tok in tokens
        if tok.type not in SKIPPED
        for line in range(tok.start[0], tok.end[0] + 1)
    }
    return len(lines - docstring_lines(ast.parse(path.read_bytes())))


def main() -> None:
    root = Path(__file__).resolve().parents[1] / "src" / "hyqa"
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6,d}  {path.name}")
    print(f"{total:6,d}  total")


if __name__ == "__main__":
    main()
