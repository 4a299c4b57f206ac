"""Entry point for ``python -m weylift``; the same CLI as the ``weylift`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
