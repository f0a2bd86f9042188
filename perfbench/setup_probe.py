"""Time one workload's set-up in a fresh process and print it in reference
seconds.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

The clock starts before ``kronecker`` is imported, so the figure covers the
import, generating the systems, parsing them and writing the CLI inputs.
The host's speed is sampled in this process (``speed.HostClock``), on the
core the set-up runs on.
"""

import sys

from speed import HostClock  # speed.py sits beside this file

with HostClock() as clock:
    start = clock.now()
    import run  # noqa: E402

    run._import_program()
    run.prepare(sys.argv[1], int(sys.argv[2]))
    end = clock.now()
print((end - start) * clock.scale(start, end))
