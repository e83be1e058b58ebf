#!/usr/bin/env python3
"""Fail when a CI `go test -run` pattern names a test that does not exist.

`go test -run 'TestA|TestB' pkg` passes with "no tests to run" when no
name matches, so a renamed or deleted test silently drops out of a CI
gate. This script reads every `go test ... -run '<pattern>' <pkgs>`
line of the workflow, takes each alternative of the pattern that is a
whole test name (Test followed by word characters), and checks that
`go test -list` shows it in at least one of the packages the line
names. Alternatives that are not test names (substrings such as
'Chaos' or 'SteadyStateAllocs', '^$') are left alone.

Usage, from the repo root: python3 scripts/check-ci-tests.py [ci.yml]
"""

import re
import subprocess
import sys

RUN_LINE = re.compile(r"go test\b.*?-run '([^']*)'(.*)")
TEST_NAME = re.compile(r"Test\w+")


def listed(pkg, cache={}):
    """The test names `go test -list` reports for one package."""
    if pkg not in cache:
        out = subprocess.run(
            ["go", "test", "-list", ".", pkg],
            check=True, capture_output=True, text=True,
        ).stdout
        cache[pkg] = {line.strip() for line in out.splitlines()}
    return cache[pkg]


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else ".github/workflows/ci.yml"
    missing = []
    checked = 0
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            m = RUN_LINE.search(line)
            if not m or line.lstrip().startswith("#"):
                continue
            pkgs = [a for a in m.group(2).split() if a == "." or a.startswith("./")]
            names = [a.strip("^$") for a in m.group(1).split("|")]
            for name in names:
                if not TEST_NAME.fullmatch(name):
                    continue
                checked += 1
                if not any(name in listed(p) for p in pkgs):
                    missing.append(f"{path}:{lineno}: {name} not in {' '.join(pkgs)}")
    for m in missing:
        print(m, file=sys.stderr)
    print(f"{checked} named tests checked, {len(missing)} missing")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
