"""Peak memory of one command: `python tests/peak_rss.py ARG...` runs
`python ARG...` with stdout sent to /dev/null and prints its exit status and
its peak resident set size in KiB, as "STATUS KIB".

The command is started with os.fork and os.execv and its ru_maxrss read
from os.wait4.  Linux carries the resident size of the process that execs
into the child's high-water mark: a forked child starts at its parent's
current size, and a vfork child (subprocess, posix_spawn) at its parent's
peak.  This script is small, so what it prints is the command's own peak.
Run it as a fresh process, never from within a large one.
"""

import os
import sys


def main() -> None:
    pid = os.fork()
    if pid == 0:
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            os.execv(sys.executable, [sys.executable, *sys.argv[1:]])
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)


if __name__ == "__main__":
    main()
