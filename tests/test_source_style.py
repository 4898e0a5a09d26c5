"""Layout rules for the package source that no installed linter enforces."""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qci"
MAX_LINE = 100


def test_no_source_line_over_the_limit():
    sources = sorted(SRC.rglob("*.py"))
    assert sources
    long = [
        f"{path.relative_to(SRC)}:{number} ({len(line)} characters)"
        for path in sources
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > MAX_LINE
    ]
    assert long == []
