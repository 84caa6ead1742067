"""Entry point for ``python -m repro.statcheck``.

A reader that closes stdout early (``| head``) ends the run with exit
code 1 and no traceback.
"""

import os
import sys

from .cli import main

try:
    code = main()
except BrokenPipeError:
    # Point stdout at devnull so the interpreter's final flush of what
    # is still buffered stays quiet.
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    code = 1
sys.exit(code)
