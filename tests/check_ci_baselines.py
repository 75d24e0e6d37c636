#!/usr/bin/env python3
"""Every --baseline file the CI bench gate names must be in the source tree.

Reads .github/workflows/ci.yml, collects the arguments of every
`--baseline FILE` it passes to check_bench_regression.py and fails (exit 1)
naming each one that is missing from the repository root or, in a git
checkout, not tracked by git: an ignored or untracked baseline exists
locally but not in the clean checkout CI gates, where the gate then exits 2
on every run. Hermetic; needs no built binaries.

  tests/check_ci_baselines.py [REPO_ROOT]
"""
import os
import re
import subprocess
import sys


def main(argv):
    root = argv[0] if argv else os.path.join(os.path.dirname(__file__), "..")
    root = os.path.abspath(root)
    with open(os.path.join(root, ".github", "workflows", "ci.yml")) as f:
        baselines = sorted(set(re.findall(r"--baseline\s+(\S+)", f.read())))
    if not baselines:
        print("FAIL: ci.yml names no --baseline file (gate step moved?)")
        return 1
    tracked = None
    if os.path.isdir(os.path.join(root, ".git")):
        out = subprocess.run(["git", "-C", root, "ls-files", "--"] + baselines,
                             capture_output=True, text=True, check=True)
        tracked = set(out.stdout.split())
    missing = []
    for path in baselines:
        if not os.path.isfile(os.path.join(root, path)):
            missing.append(f"{path} (no such file)")
        elif tracked is not None and path not in tracked:
            missing.append(f"{path} (not tracked by git)")
    for m in missing:
        print(f"FAIL: CI bench gate baseline {m}")
    if missing:
        return 1
    print(f"ok: {len(baselines)} CI baselines present: {' '.join(baselines)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
