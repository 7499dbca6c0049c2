#!/usr/bin/env python3
"""Run a command and report its peak resident set size.

    python3 tools/peak_rss.py [--max-mb N] -- COMMAND [ARGS...]

Runs COMMAND, waits for it, and prints the largest resident set size
any waited-for child process reached (getrusage RUSAGE_CHILDREN
ru_maxrss) together with the children's user and system CPU seconds.

Exit status: COMMAND's own status when it fails; otherwise 1 when
--max-mb is given and the peak exceeds it, else 0.
"""
import argparse
import resource
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(
        description="Run a command and report its peak RSS.")
    parser.add_argument("--max-mb", type=float, default=None,
                        help="fail when the peak RSS exceeds this many MB")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="command to run (after --)")
    args = parser.parse_args()
    command = args.command
    if command and command[0] == "--":
        command = command[1:]
    if not command:
        parser.error("no command given")

    rc = subprocess.run(command).returncode
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    peak_mb = usage.ru_maxrss / 1024.0  # Linux reports KB
    bound = "" if args.max_mb is None else " (bound %.0f MB)" % args.max_mb
    print("peak_rss.py: peak RSS %.1f MB, CPU %.2f s user + %.2f s sys%s"
          % (peak_mb, usage.ru_utime, usage.ru_stime, bound))
    sys.stdout.flush()
    if rc != 0:
        print("peak_rss.py: command exited with status %d" % rc,
              file=sys.stderr)
        return rc if rc > 0 else 1
    if args.max_mb is not None and peak_mb > args.max_mb:
        print("peak_rss.py: peak RSS %.1f MB exceeds %.0f MB"
              % (peak_mb, args.max_mb), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
