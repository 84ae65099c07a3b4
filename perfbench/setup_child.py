"""One measurement of the program's set-up, in a fresh interpreter.

Usage: python3 setup_child.py SRC_DIR DOC...

Times importing domikit from SRC_DIR and parsing and validating each
document once, and prints the seconds it took.
"""

import sys
import time

started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from domikit.documents import parse_system  # noqa: E402

for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        parse_system(fh.read())
print(time.perf_counter() - started)
