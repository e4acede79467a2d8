"""Spawn one command, wait for it, and print its wall time, exit code and peak RSS.

Usage: python3 -S bench/launch.py TIMEOUT_S STDERR_LOG COMMAND...

Prints one line: wall seconds from spawn to exit, the exit code, and the
child's ru_maxrss in KiB. A child's ru_maxrss starts from its parent's peak
resident memory, so children of the benchmark runner, which holds numpy and
the workload's data, would all report at least the runner's peak. This
launcher imports only the standard library and stays near 13 MiB, below the
peak of any operation, which imports numpy.
"""

import os
import subprocess
import sys
import threading
import time


def main(argv: list[str]) -> int:
    timeout, log, command = float(argv[0]), argv[1], argv[2:]
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(wall, proc.returncode, usage.ru_maxrss)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
