"""``python -m distlab``: the same command as the ``distlab`` console script."""

from .cli import main

if __name__ == "__main__":
    main()
