"""Count the code lines of Python files: lines that are not blank, not a comment alone, and not in a docstring.

    python3 tools/code_lines.py src/blocktri/*.py

prints one number, the total over the files given. A docstring is the string
that opens a module, class or function body (found with ``ast``); a comment
line holds nothing but a comment (found with ``tokenize``). A line that holds
code and a comment counts, and so does every line of a string that is not a
docstring. Standard library only, so it runs on any tree the tests run on.
"""

import ast
import io
import sys
import tokenize

_NOT_CODE = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path: str) -> int:
    """The number of code lines of one Python source file."""
    with open(path, "rb") as f:
        source = f.read()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


if __name__ == "__main__":
    print(sum(code_lines(path) for path in sys.argv[1:]))
