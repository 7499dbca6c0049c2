#!/usr/bin/env python3
"""Self-test driver for tools/nasd_analyze.py.

Runs the analyzer over every fixture (*.cc, *.h) in this directory and
asserts an exact match between findings and `EXPECT[Ax]` markers:

  * every line tagged `// EXPECT[Ax] ...` must produce at least one
    finding of check Ax on that exact line (a seeded defect the
    analyzer misses is a test failure),
  * no finding may land on an untagged line (a clean idiom the
    analyzer flags is a false positive, also a failure), and
  * every tag must name a check the analyzer lists (`--list-checks`),
    so a tag left behind by a retired check fails instead of passing
    vacuously.

Fixtures are analyzed one file at a time with --no-baseline so the
repo's suppression file cannot mask a regression, and with the builtin
backend so the test runs everywhere ctest does.

Usage: run_fixture_tests.py [--analyzer PATH] [--fixture-dir DIR]
Exit status: 0 all fixtures behave, 1 otherwise.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

EXPECT_RE = re.compile(r"//\s*EXPECT\[([^\]]*)\]")


def known_checks(analyzer):
    """Check IDs from the analyzer's CHECKS table (via --list-checks)."""
    proc = subprocess.run(
        [sys.executable, str(analyzer), "--list-checks"],
        capture_output=True, text=True, check=True,
    )
    return {line.split()[0] for line in proc.stdout.splitlines()
            if line.strip()}


def expected_findings(path):
    expect = set()
    for line_no, line in enumerate(path.read_text().splitlines(), 1):
        for m in EXPECT_RE.finditer(line):
            expect.add((m.group(1), line_no))
    return expect


def actual_findings(analyzer, path):
    proc = subprocess.run(
        [
            sys.executable, str(analyzer), "--backend", "builtin",
            "--no-baseline", "--format", "json",
            "--root", str(path.parent), str(path),
        ],
        capture_output=True, text=True,
    )
    if proc.returncode not in (0, 1):
        raise RuntimeError(
            f"analyzer errored on {path.name} "
            f"(exit {proc.returncode}):\n{proc.stderr}"
        )
    data = json.loads(proc.stdout)
    return {
        (f["check"], f["line"]): f["message"]
        for f in data["findings"]
    }


def main():
    here = Path(__file__).resolve().parent
    ap = argparse.ArgumentParser()
    ap.add_argument(
        "--analyzer",
        default=str(here.parent.parent / "tools" / "nasd_analyze.py"),
    )
    ap.add_argument("--fixture-dir", default=str(here))
    args = ap.parse_args()

    analyzer = Path(args.analyzer)
    fixture_dir = Path(args.fixture_dir)
    fixtures = sorted(fixture_dir.glob("*.cc")) + \
        sorted(fixture_dir.glob("*.h"))
    if not fixtures:
        print(f"no fixtures under {fixture_dir}", file=sys.stderr)
        return 1

    checks = known_checks(analyzer)
    failures = []
    for path in fixtures:
        expect = expected_findings(path)
        for check, line in sorted(e for e in expect if e[0] not in checks):
            failures.append(f"{path.name}:{line}: EXPECT[{check}] names "
                            "no check the analyzer lists")
        if path.stem.endswith("_bad") and not expect:
            failures.append(f"{path.name}: bad fixture has no "
                            "EXPECT markers")
            continue
        found = actual_findings(analyzer, path)
        missed = expect - set(found)
        spurious = set(found) - expect
        for check, line in sorted(missed):
            failures.append(
                f"{path.name}:{line}: seeded {check} defect NOT flagged"
            )
        for check, line in sorted(spurious):
            failures.append(
                f"{path.name}:{line}: unexpected {check} finding "
                f"(false positive): {found[(check, line)]}"
            )
        status = "ok" if not (missed or spurious) else "FAIL"
        print(f"{path.name}: {len(expect)} expected, "
              f"{len(found)} found — {status}")

    if failures:
        print()
        for f in failures:
            print(f"FAIL: {f}")
        print(f"\n{len(failures)} fixture failure(s)")
        return 1
    print(f"\nall {len(fixtures)} fixtures behave")
    return 0


if __name__ == "__main__":
    sys.exit(main())
