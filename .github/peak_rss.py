"""Run a command in a child process and check its exit code and peak RSS.

    python3 .github/peak_rss.py EXIT MAX_MB [--stdout FILE] COMMAND [ARG...]

The command's peak RSS is read with os.wait4 by this small parent,
since a child's ru_maxrss includes the high-water mark of the process
that spawned it.  With --stdout the command's stdout goes to FILE.
Exits 0 when the command exits with EXIT and peaks at or below MAX_MB
megabytes, else 1.
"""

import os
import sys


def main(argv: list[str]) -> int:
    expected, max_mb, *command = argv
    actions = []
    if command[:1] == ["--stdout"]:
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions.append((os.POSIX_SPAWN_OPEN, 1, command[1], flags, 0o644))
        command = command[2:]
    pid = os.posix_spawnp(command[0], command, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    code, peak_mb = os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024
    print(f"{' '.join(command)}: exit {code}, peak RSS {peak_mb:.1f} MB")
    return 0 if code == int(expected) and peak_mb <= float(max_mb) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
