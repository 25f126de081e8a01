import os
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# The suite imports the package from this checkout, and so do the command
# line and demo scripts it runs in subprocesses, which inherit PYTHONPATH.
sys.path[:0] = [str(SRC), str(TESTS)]
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC),
                                                         os.environ.get("PYTHONPATH")]))
