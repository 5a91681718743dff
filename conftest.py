"""Test-session settings for the whole repository.

No bytecode is written, by this process or by the interpreters that tests
start (they inherit the environment), so a test run leaves no
``__pycache__`` under ``src/`` for a later timed run to import from.
"""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
