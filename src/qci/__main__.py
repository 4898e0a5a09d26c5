"""`python -m qci`: the same command line as the `qci` console script."""

from .cli import entry

if __name__ == "__main__":
    entry()
