"""Size of a source tree's ``src/`` modules: lines, code tokens and statements.

Usage (from the repository root):

    python3 benchmarks/src_size.py .
    python3 benchmarks/src_size.py ../parent --json

Lines are physical lines, so they move with wrapping. Code tokens are the
tokens ``tokenize`` yields, less comments, line breaks, indentation and
the encoding and end markers; a docstring is one token. Statements are the
``ast.stmt`` nodes of the module. Neither of the last two moves when lines
are rewrapped inside brackets, blank lines move or comments change, so
they measure a deletion that reformatting cannot fake.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import sys
import tokenize
from pathlib import Path

# Token types that only lay code out; they are not counted.
LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def measure(source: str) -> dict[str, int]:
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {
        "lines": len(source.splitlines()),
        "tokens": sum(1 for tok in tokens if tok.type not in LAYOUT),
        "statements": sum(isinstance(node, ast.stmt) for node in ast.walk(ast.parse(source))),
    }


def tree_size(tree: Path) -> dict[str, dict[str, int]]:
    """Per module under ``<tree>/src``, keyed by its path relative to ``src``, plus a ``total`` row."""
    src = tree / "src"
    modules = sorted(src.rglob("*.py"))
    if not modules:
        raise SystemExit(f"src_size: no Python modules under {src}")
    rows = {str(path.relative_to(src)): measure(path.read_text(encoding="utf-8")) for path in modules}
    rows["total"] = {key: sum(row[key] for row in rows.values()) for key in ("lines", "tokens", "statements")}
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path, help="source tree holding src/")
    parser.add_argument("--json", action="store_true", help="print JSON instead of a table")
    args = parser.parse_args(argv)
    rows = tree_size(args.tree)
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    width = max(len(name) for name in rows)
    print(f"{'module':<{width}} {'lines':>7} {'tokens':>7} {'stmts':>7}")
    for name, row in rows.items():
        print(f"{name:<{width}} {row['lines']:>7} {row['tokens']:>7} {row['statements']:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
