"""``python -m skycloak``: the command-line interface of :mod:`skycloak.cli`."""

import sys

from skycloak import cli

if __name__ == "__main__":
    sys.exit(cli.main())
