#!/usr/bin/env python3
"""Compare carfield's ziggurat tables with those compiled into numpy.

`carfield.draws` stores numpy's 256-entry ki (uint64), wi and fi (double)
tables of `random_standard_normal` as constants. This script finds each table
in an installed numpy binary by its first entries, reads 256 entries from
there and compares them with the committed constants. It prints the byte
offset of each table and exits 0 when all three agree, 1 on a mismatch or a
table it cannot find.

    python3 scripts/ziggurat_tables.py
    python3 scripts/ziggurat_tables.py --binary path/to/_bounded_integers.so
"""

import argparse
import glob
import os
import struct
import sys
from pathlib import Path

import numpy

from carfield import draws

TABLES = (
    # name, committed entries, struct code of one entry, entries in the search key
    ("ki", draws._KI, "Q", 1),
    ("wi", draws._WI, "d", 1),
    ("fi", draws._FI, "d", 2),  # fi starts at 1.0, too common a value alone
)


def default_binary() -> str | None:
    pattern = os.path.join(os.path.dirname(numpy.__file__), "random", "_bounded_integers*")
    found = sorted(p for p in glob.glob(pattern) if p.endswith((".so", ".pyd")))
    return found[0] if found else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", default=None,
                        help="numpy extension to search (default: numpy's "
                        "random/_bounded_integers of the running interpreter)")
    args = parser.parse_args(argv)
    path = args.binary or default_binary()
    if path is None:
        print("no numpy random/_bounded_integers binary found; pass --binary",
              file=sys.stderr)
        return 1
    data = Path(path).read_bytes()
    print(f"numpy {numpy.__version__}: {path}")

    ok = True
    for name, committed, code, key_len in TABLES:
        fmt = f"<{len(committed)}{code}"
        offset = data.find(struct.pack(f"<{key_len}{code}", *committed[:key_len]))
        if offset < 0 or offset + struct.calcsize(fmt) > len(data):
            print(f"{name}: not found")
            ok = False
            continue
        installed = struct.unpack_from(fmt, data, offset)
        differ = [i for i, (a, b) in enumerate(zip(installed, committed)) if a != b]
        print(f"{name}: offset {offset}, {len(committed) - len(differ)} of "
              f"{len(committed)} entries equal"
              + (f", first difference at entry {differ[0]}" if differ else ""))
        ok = ok and not differ
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
