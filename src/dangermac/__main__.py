"""``python -m dangermac``: the same entry point as the ``dangermac`` script."""

from .cli import console_main

console_main()
