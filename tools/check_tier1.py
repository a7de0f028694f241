#!/usr/bin/env python3
"""Run the tier-1 test suite and pass only on its documented outcome.

Tier-1 is the whole suite, run as ROADMAP.md gives it:

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors

Two acceptance rows fail by design until the program's settling tail
matches the paper (README, "Tests").  This script exits 0 only
when the tests that fail or error are exactly those two and none is
skipped: a new failure fails it, and so does either row starting to pass,
which the README and ROADMAP would then have to record.

Usage: python tools/check_tier1.py
"""

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROW = ("tests.test_acceptance.TestCriterion1TableReproduction"
       "::test_published_measurement")
EXPECTED_FAILURES = {f"{ROW}[A-t_s]", f"{ROW}[B-t_s]"}


def outcomes(junit):
    """Test id -> 'passed', 'failed' or 'skipped', from a JUnit XML file."""
    result = {}
    for case in ET.parse(junit).getroot().iter("testcase"):
        name = f"{case.get('classname')}::{case.get('name')}"
        if case.find("failure") is not None or case.find("error") is not None:
            result[name] = "failed"
        elif case.find("skipped") is not None:
            result[name] = "skipped"
        else:
            result[name] = "passed"
    return result


def main():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        junit = Path(tmp) / "tier1.xml"
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-q",
             "--continue-on-collection-errors", f"--junitxml={junit}"],
            cwd=ROOT, env=env).returncode
        if code not in (0, 1) or not junit.exists():
            print(f"tier-1: pytest did not complete (exit {code})")
            return 1
        result = outcomes(junit)
    failed = {name for name, kind in result.items() if kind == "failed"}
    skipped = sorted(name for name, kind in result.items()
                     if kind == "skipped")
    problems = ([f"unexpected failure: {name}"
                 for name in sorted(failed - EXPECTED_FAILURES)]
                + [f"documented failure now passes or is missing: {name}"
                   for name in sorted(EXPECTED_FAILURES - failed)]
                + [f"skipped: {name}" for name in skipped])
    for line in problems:
        print(f"tier-1: {line}")
    print(f"tier-1: {len(result)} tests, {len(failed)} failed"
          f" ({len(failed & EXPECTED_FAILURES)} documented),"
          f" {len(skipped)} skipped: {'FAIL' if problems else 'ok'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
