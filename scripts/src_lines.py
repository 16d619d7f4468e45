#!/usr/bin/env python3
"""Split the Python lines under a source tree into code, docstring, comment
and blank lines.

It reads the files ``perfbench/run.py``'s ``src_line_count`` counts (every
``.py`` file under the tree) and counts their lines the same way, so the
four parts sum to that count.  Each line goes to one part, first match
wins:

* docstring: a line of a string literal that stands alone as a statement
  (a module, class or function docstring, or any other bare string);
* code: a line holding, or inside, any other token;
* comment: a line holding only a comment;
* blank: the rest, lines of whitespace.

A deleted comment or docstring shrinks the line count without shrinking the
code; this split tells the two apart.

    python scripts/src_lines.py            # this checkout's src/
    python scripts/src_lines.py base/src
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize
from typing import Dict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PARTS = ("code", "docstring", "comment", "blank")
# tokens that mark no line as code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def file_split(data: bytes) -> Dict[str, int]:
    """The four parts of one file's source, read as bytes."""
    text = data.decode("utf-8")
    # lines as iterating the file in binary counts them: split on b"\n"
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    docstring = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            docstring.update(range(node.lineno, node.end_lineno + 1))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(PARTS, 0)
    for number, line in enumerate(lines, 1):
        if number in docstring:
            counts["docstring"] += 1
        elif number in code or line.strip() and number not in comment:
            counts["code"] += 1
        elif number in comment:
            counts["comment"] += 1
        else:
            counts["blank"] += 1
    return counts


def split(src: str) -> Dict[str, int]:
    """The four parts summed over every ``.py`` file under ``src``."""
    counts = dict.fromkeys(PARTS, 0)
    # the files ``src_line_count`` reads
    for folder, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    for part, n in file_split(fh.read()).items():
                        counts[part] += n
    return counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="?", default=os.path.join(ROOT, "src"),
                    help="the source tree (default: this checkout's src/)")
    args = ap.parse_args(argv)
    if not os.path.isdir(args.src):
        print(f"error: no directory {args.src}", file=sys.stderr)
        return 2
    counts = split(args.src)
    parts = ", ".join(f"{part} {counts[part]}" for part in PARTS)
    print(f"{os.path.relpath(args.src)} lines: {sum(counts.values())} "
          f"({parts})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
