#!/usr/bin/env python3
"""Checks that the environment knobs the code reads are the ones README lists.

Every "ROLP_..." string literal in src/ and examples/ is an environment name
the runtime or an example reads. README.md's knob table (rows whose first
cell is a `ROLP_...` name) documents them. The check fails when the two sets
differ — a knob added without a row, or a row left behind by a deleted
knob — and when one name is quoted in more than one place, since each knob
has exactly one reader.

Usage:
  scripts/check_env_knobs.py [repo_root]

Exit status: 0 when code and table agree, 1 otherwise.
"""

import os
import re
import sys

CODE_DIRS = ("src", "examples")
CODE_SUFFIXES = (".h", ".cc", ".cpp")
LITERAL = re.compile(r'"(ROLP_[A-Z0-9_]+)"')
TABLE_ROW = re.compile(r"^\|\s*`(ROLP_[A-Z0-9_]+)`\s*\|")


def code_reads(root):
    sites = {}
    for d in CODE_DIRS:
        for dirpath, _, files in os.walk(os.path.join(root, d)):
            for name in sorted(files):
                if not name.endswith(CODE_SUFFIXES):
                    continue
                path = os.path.join(dirpath, name)
                with open(path) as f:
                    for lineno, line in enumerate(f, 1):
                        for knob in LITERAL.findall(line):
                            rel = os.path.relpath(path, root)
                            sites.setdefault(knob, []).append("%s:%d" % (rel, lineno))
    return sites


def readme_table(root):
    with open(os.path.join(root, "README.md")) as f:
        return {m.group(1) for m in map(TABLE_ROW.match, f) if m}


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.join(os.path.dirname(__file__), "..")
    sites = code_reads(root)
    documented = readme_table(root)
    ok = True
    for knob in sorted(set(sites) - documented):
        print("FAIL: %s is read at %s but has no README knob-table row"
              % (knob, ", ".join(sites[knob])))
        ok = False
    for knob in sorted(documented - set(sites)):
        print("FAIL: README lists %s, which nothing in %s reads"
              % (knob, " or ".join(CODE_DIRS)))
        ok = False
    for knob in sorted(k for k, s in sites.items() if len(s) > 1):
        print("FAIL: %s is read in %d places (%s); keep one reader"
              % (knob, len(sites[knob]), ", ".join(sites[knob])))
        ok = False
    if ok:
        print("OK: %d environment knobs, each read once and listed in README.md"
              % len(sites))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
