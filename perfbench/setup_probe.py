"""Set-up cost of one CLI invocation, measured in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py SPEC.json ...`` with ``src`` on
``PYTHONPATH``.  Prints the seconds spent importing ``gaussvar.cli`` and
loading every spec with ``load_chart``.
"""

import sys
import time

t0 = time.perf_counter()
import gaussvar.cli  # noqa: E402  (the import is what is timed)

for path in sys.argv[1:]:
    gaussvar.cli.load_chart(path)
print(repr(time.perf_counter() - t0))
