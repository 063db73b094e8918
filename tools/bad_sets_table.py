#!/usr/bin/env python3
"""Write ``src/blindalign/_triples.py``, the node table behind exact triple counts.

    python tools/bad_sets_table.py           # rows N = 1..51, j = 1..12; about 2 min
    python tools/bad_sets_table.py --check   # N = 52..56 against the interpolation; about 3 min

Row N holds c_1(N)..c_12(N), the j-point sets {0} ∪ S ⊂ Z_N with no
feasible 3-subset, from the chain DP ``bad_set_counts`` in
``tests/helpers.py``. ``counting.exact_count`` interpolates past the last
row on each residue class of N mod 4, so ``--check`` runs the DP at N
beyond the table and compares every c_j; it exits 1 on a mismatch. Times
are on a 2-vCPU host with Python 3.11.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from helpers import bad_set_counts  # noqa: E402

TABLE = ROOT / "src" / "blindalign" / "_triples.py"
N_MAX, J = 51, 12  # the first 12 nodes N >= 4 of every class mod 4 end at 51

HEADER = f'''"""Node table for exact triple counts; written by tools/bad_sets_table.py.

ROWS[N - 1][j - 1] is c_j(N), the number of j-point sets {{0}} ∪ S ⊂ Z_N with
no feasible 3-subset, for N = 1..{N_MAX} and j = 1..{J}: outputs of the chain DP
in tests/helpers.py, not fitted coefficients.
"""

J = {J}
ROWS = (
'''


def write_table() -> None:
    lines = []
    for N in range(1, N_MAX + 1):
        t = time.perf_counter()
        lines.append(f"    ({', '.join(map(str, bad_set_counts(N, 3, J)))}),\n")
        print(f"N={N}: {time.perf_counter() - t:.2f} s", file=sys.stderr)
    TABLE.write_text(HEADER + "".join(lines) + ")\n")


def check(n_values) -> int:
    from blindalign import _triples, counting  # only here: writing needs no old table

    bad = 0
    for N in n_values:
        t = time.perf_counter()
        dp = bad_set_counts(N, 3, J)
        table = [counting._bad_sets_3(_triples.ROWS, N, j) for j in range(1, J + 1)]
        ok = dp == table
        bad += not ok
        print(f"N={N}: {'ok' if ok else f'DP {dp} != table {table}'} "
              f"({time.perf_counter() - t:.1f} s)")
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="run the DP at N = 52..56 and compare with the interpolation")
    args = ap.parse_args()
    if args.check:
        return check(range(N_MAX + 1, N_MAX + 6))
    write_table()
    return 0


if __name__ == "__main__":
    sys.exit(main())
