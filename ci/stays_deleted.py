#!/usr/bin/env python3
"""Fail if code listed in ci/stays_deleted.txt comes back.

Each line of the list is `pattern | where | reason | PR` (see the header of
ci/stays_deleted.txt). Every text file under `where` is searched line by
line for `pattern`; each match is printed with the reason, and any match
makes the exit status 1.

Usage: python3 ci/stays_deleted.py   (from anywhere in the repository)
"""

import functools
import glob
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIST = ROOT / "ci" / "stays_deleted.txt"
DEFAULT_WHERE = ["crates", "src", "tests", "examples"]


def files_under(where):
    roots, skip = [], []
    for word in where.split():
        if word == "-":
            roots.extend(DEFAULT_WHERE)
        elif word.startswith("!"):
            skip.append(word[1:])
        else:
            matched = sorted(glob.glob(word, root_dir=ROOT))
            if not matched:
                sys.exit(f"{LIST.name}: `{word}` matches no path")
            roots.extend(matched)
    for root in roots:
        path = ROOT / root
        for p in sorted(path.rglob("*")) if path.is_dir() else [path]:
            rel = p.relative_to(ROOT).as_posix()
            if p.is_file() and not any(rel.startswith(s) for s in skip):
                yield rel, p


@functools.cache
def lines(path):
    try:
        return path.read_text().splitlines()
    except UnicodeDecodeError:
        return []  # binary fixtures


def main():
    rules = 0
    hits = 0
    for n, line in enumerate(LIST.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split("|")]
        if len(fields) != 4 or not all(fields):
            sys.exit(f"{LIST.name}:{n}: want `pattern | where | reason | PR`, got `{line}`")
        pattern, where, reason, pr = fields
        regex = re.compile(pattern)
        rules += 1
        for rel, path in files_under(where):
            for k, src in enumerate(lines(path), 1):
                if regex.search(src):
                    hits += 1
                    print(f"{rel}:{k}: `{pattern}` stays deleted (PR {pr}: {reason})")
                    print(f"    {src.strip()}")
    if hits:
        return 1
    print(f"stays deleted: {rules} patterns, no match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
