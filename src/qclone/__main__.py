"""Entry of `python -m qclone` and of the `qclone` script."""

import gc


def main() -> None:
    # No collection runs while numpy and the package are imported: cli.main
    # freezes what the imports made and then enables the collector again.
    gc.disable()
    from .cli import main as cli_main
    cli_main()


if __name__ == "__main__":
    main()
