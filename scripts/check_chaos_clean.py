#!/usr/bin/env python3
"""Fails when a chaos run reported heap corruption.

A chaos outcome such as `degraded` or `quarantined` is survivable, but a
`heap_corruption_reports` count above zero means the in-pause verifier found
a heap the collector left broken (for example an undiscovered survivor in a
region the pause freed). Campaign legs that inject no corrupting fault must
see none.

Each argument is either a scripts/chaos.py JSON report (its "runs") or the
captured stdout of one chaos_campaign run (its CHAOS_RESULT line).

Usage:
  scripts/check_chaos_clean.py /tmp/ci_chaos_concurrent_report.json
  scripts/check_chaos_clean.py /tmp/ci_chaos_cancel.txt

Exit status: 0 when every run reported zero corruption, 1 otherwise (also
when a file holds no run at all).
"""

import json
import sys

RESULT_PREFIX = "CHAOS_RESULT "


def load_runs(path):
    with open(path) as f:
        text = f.read()
    if text.lstrip().startswith("{"):
        return json.loads(text).get("runs", [])
    return [json.loads(line[len(RESULT_PREFIX):])
            for line in text.splitlines() if line.startswith(RESULT_PREFIX)]


def main(paths):
    if not paths:
        sys.stderr.write(__doc__)
        return 2
    ok = True
    for path in paths:
        runs = load_runs(path)
        if not runs:
            print("FAIL: %s holds no chaos run" % path)
            ok = False
            continue
        for run in runs:
            reports = run.get("heap_corruption_reports", 0)
            if run.get("outcome") == "crash" or reports > 0:
                print("FAIL: %s seed %s: outcome=%s heap_corruption_reports=%d "
                      "(replay: --faults='%s')"
                      % (path, run.get("seed"), run.get("outcome"), reports,
                         run.get("replay_spec", "")))
                ok = False
        if ok:
            print("OK: %s: %d run(s), no heap corruption" % (path, len(runs)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
