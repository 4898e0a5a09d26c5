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


def test_cli_does_no_arithmetic():
    """The command line composes library calls: it builds no presentation and
    does no field arithmetic, on Scalars or on payloads."""
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    forbidden = [".inverse(", "from_int(", "Presentation(", "._mul", "._pow", "._inv", "._add"]
    assert [token for token in forbidden if token in source] == []
