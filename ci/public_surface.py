#!/usr/bin/env python3
"""Fail on a `pub` item whose name no other file reads.

Lists every `pub` fn, struct, enum, trait, type, const and static defined
under crates/ and src/ whose name appears, as a whole word, in no other Rust
file under crates/, src/, tests/, examples/ or perfbench/src/. A re-export
(`pub use`) is not a reader. Such an item is either dead or could be
private. An item that must stay `pub` anyway goes
on ci/public_surface_allow.txt with its reason; the check fails on any item
found that the list does not name, and on any list entry that no longer
matches a found item.

A name-based scan gives a lower bound: a name also used by an unrelated item
elsewhere counts as read.

Usage: python3 ci/public_surface.py   (from anywhere in the repository)
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFINING = ["crates", "src"]
READING = ["crates", "src", "tests", "examples", "perfbench/src"]
ALLOW = ROOT / "ci" / "public_surface_allow.txt"

ITEM = re.compile(
    r"^\s*pub\s+(?:const\s+|async\s+)?(?:fn|struct|enum|trait|type|const|static)\s+([A-Za-z_]\w*)",
    re.M,
)
WORD = re.compile(r"[A-Za-z_]\w*")
REEXPORT = re.compile(r"\bpub\s+use\b[^;]*;", re.S)


def rust_files(dirs):
    for d in dirs:
        yield from sorted((ROOT / d).rglob("*.rs"))


def main():
    words = {}
    for path in rust_files(READING):
        words[path] = set(WORD.findall(REEXPORT.sub("", path.read_text())))

    found = set()
    for path in rust_files(DEFINING):
        rel = path.relative_to(ROOT).as_posix()
        for name in ITEM.findall(path.read_text()):
            if not any(name in w for p, w in words.items() if p != path):
                found.add(f"{rel}::{name}")

    allowed = set()
    for line in ALLOW.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            item, _, reason = line.partition("|")
            if not reason.strip():
                sys.exit(f"{ALLOW.name}: `{line}` gives no reason")
            allowed.add(item.strip())

    unread = sorted(found - allowed)
    stale = sorted(allowed - found)
    for item in unread:
        print(f"pub item with no reader outside its file: {item}")
    for item in stale:
        print(f"allow-list entry matches no unread pub item: {item}")
    if unread or stale:
        print("make the item private (or delete it if nothing reads it), "
              f"or add `path::name | reason` to ci/{ALLOW.name}")
        return 1
    print(f"public surface: {len(allowed)} allow-listed, none unread")
    return 0


if __name__ == "__main__":
    sys.exit(main())
