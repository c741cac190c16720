"""Count code lines of Python files: blank lines, comments and docstrings
excluded, so deleting a docstring never reads as less code.

A docstring is the first statement of a module, class or function when
it is a string literal; none of its lines count.  Any other string literal
that spans lines is text of the same kind (a docstring handed to a
factory, say): only its opening line counts, even when code follows its
closing quotes.  Every other line that holds a token, or lies inside a
multi-line token, counts.

Usage: python tools/sloc.py FILE...   (prints "code total path" per file)
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    text = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIP:
            continue
        if tok.type == tokenize.STRING:
            text.update(range(tok.start[0] + 1, tok.end[0] + 1))
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - text)


def main(paths: list[str]) -> int:
    if not paths:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    tot_code = tot_all = 0
    for path in paths:
        with open(path, encoding="utf-8") as f:
            source = f.read()
        n_code, n_all = code_lines(source), len(source.splitlines())
        tot_code += n_code
        tot_all += n_all
        print(f"{n_code:6d} {n_all:6d} {path}")
    if len(paths) > 1:
        print(f"{tot_code:6d} {tot_all:6d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
