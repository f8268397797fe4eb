"""The process entry point: ``python -m netshare`` and the ``netshare`` script.

Both run :func:`entry`, which wraps :func:`netshare.cli.main` with the one
process-wide step a short command wants.  ``cli.main`` itself stays free of
it, because tests and the benchmark's traced run call it in process.
"""

import gc
import sys

from .cli import main


def entry() -> int:
    """Run the command line; return its exit code.

    Once ``main`` has returned, or raised ``SystemExit`` from argparse, the
    collector is frozen: every object the command loaded moves to the
    permanent generation, so the collections at interpreter shutdown no
    longer walk them.  atexit handlers and the final flush of stdout and
    stderr still run.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
