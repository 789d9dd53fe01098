"""The process entry of `python -m qclone` and of the `qclone` script."""

import gc
import sys


def main() -> None:
    # No collection runs while numpy and the package are imported; the freeze
    # then moves what they made to the permanent generation, which shutdown's
    # collections skip, and only after it is the collector enabled again.
    gc.disable()
    from . import cli
    gc.freeze()
    gc.enable()
    sys.exit(cli.run(sys.argv[1:]))


if __name__ == "__main__":
    main()
