#!/usr/bin/env python3
"""Count the non-test lines of Rust under crates/*/src.

A file's non-test lines are its lines up to its first `#[cfg(test)]` line
that is followed by a `mod x {` line (all of them when there is none). A
file declared by `#[cfg(test)] mod x;` is a test module and counts 0.

Run from anywhere inside the repository:

    python3 scripts/nontest_lines.py                      # the total
    python3 scripts/nontest_lines.py crates/core/src/*.rs  # plus these files

Each path given as an argument must name a counted file.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TEST_MOD_DECL = re.compile(r"#\[cfg\(test\)\]\s*mod (\w+);")
TEST_MOD_OPEN = re.compile(r"\s*mod \w+ \{")


def nontest_lines(lines):
    for i in range(len(lines) - 1):
        if lines[i].strip() == "#[cfg(test)]" and TEST_MOD_OPEN.match(lines[i + 1]):
            return i
    return len(lines)


def counts(root):
    files = sorted(root.glob("crates/*/src/**/*.rs"))
    test_files = {
        f.parent / (m + ".rs") for f in files for m in TEST_MOD_DECL.findall(f.read_text())
    }
    return {
        f.relative_to(root): 0 if f in test_files else nontest_lines(f.read_text().splitlines())
        for f in files
    }


def main(args):
    per_file = counts(ROOT)
    print(sum(per_file.values()))
    for arg in args:
        path = Path(arg).resolve()
        rel = path.relative_to(ROOT) if path.is_relative_to(ROOT) else None
        if rel not in per_file:
            sys.exit(f"error: {arg} is not a counted file (crates/*/src/**/*.rs)")
        print(f"{per_file[rel]:6} {rel}")


if __name__ == "__main__":
    main(sys.argv[1:])
