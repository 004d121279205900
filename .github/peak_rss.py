"""Run a command and check its peak resident set size.

Usage: python peak_rss.py LIMIT_MB DESCRIPTION COMMAND [ARG ...]

Runs COMMAND with its standard output discarded, appends the line
"DESCRIPTION: peak RSS <n> MB (limit LIMIT_MB)" to the file that
GITHUB_STEP_SUMMARY names, and exits 1 when the peak is above LIMIT_MB. A
command that fails raises before anything is written.
"""

import os
import resource
import subprocess
import sys


def main(argv: list[str]) -> int:
    limit, description, *command = argv
    subprocess.run(command, stdout=subprocess.DEVNULL, check=True)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
    with open(os.environ["GITHUB_STEP_SUMMARY"], "a") as summary:
        print(f"{description}: peak RSS {peak:.0f} MB (limit {limit})", file=summary)
    return int(peak > float(limit))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
