"""Command line front end: python -m scheme_forge."""

from .cli import main

if __name__ == "__main__":
    main()
