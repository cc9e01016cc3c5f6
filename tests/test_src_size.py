"""The size counter in benchmarks/src_size.py."""

import importlib.util

from conftest import REPO_DIR

_spec = importlib.util.spec_from_file_location("src_size", REPO_DIR / "benchmarks" / "src_size.py")
src_size = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_size)

COMPACT = '''def f(a, b):
    """Sum."""
    return a + b  # plain
'''

WRAPPED = '''def f(
    a,
    b
):
    """Sum."""

    # The sum of the two arguments.
    return a + b
'''


def test_rewrapping_moves_lines_but_not_tokens_or_statements():
    compact, wrapped = src_size.measure(COMPACT), src_size.measure(WRAPPED)
    assert (compact["lines"], wrapped["lines"]) == (3, 8)
    # def f ( a , b ) : "Sum." return a + b
    assert compact["tokens"] == wrapped["tokens"] == 13
    assert compact["statements"] == wrapped["statements"] == 3


def test_tree_total_is_the_sum_of_its_modules(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "a.py").write_text(COMPACT)
    (package / "b.py").write_text("x = 1\n")
    rows = src_size.tree_size(tmp_path)
    assert list(rows) == ["pkg/a.py", "pkg/b.py", "total"]
    assert rows["total"] == {"lines": 4, "tokens": 16, "statements": 4}
