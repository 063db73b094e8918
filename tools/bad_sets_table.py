#!/usr/bin/env python3
"""Write the node tables behind exact triple and quadruple counts.

    python tools/bad_sets_table.py           # both tables; about 18 min
    python tools/bad_sets_table.py --check   # the held-out rows of both; about 23 min

``src/blindalign/_triples.py`` holds rows N = 1..51 for k = 3 (about 3 min)
and ``src/blindalign/_quadruples.py`` rows N = 1..64 for k = 4 (about 15
min, 2 min a row near N = 64, peak RSS 333 MB). Row N holds c_1(N)..c_12(N),
the j-point sets {0} ∪ S ⊂ Z_N with no feasible k-subset, from the chain
DP ``counting.bad_set_counts``, run here past its front guard.
``counting.exact_count`` interpolates past the last row on each residue
class of N mod k+1, so ``--check`` runs the DP at the five N beyond each
table (52..56 for k = 3, 65..69 for k = 4) and compares every c_j; it
exits 1 on a mismatch. Times are on a shared 2-vCPU host with Python 3.11.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from blindalign import counting  # noqa: E402

counting._DP_FRONTS = math.inf  # rows near the last take minutes, far past the guard
J = 12
NOUNS = {3: "triple", 4: "quadruple"}

HEADER = '''"""Node table for exact {noun} counts; written by tools/bad_sets_table.py.

ROWS[N - 1][j - 1] is c_j(N), the number of j-point sets {{0}} ∪ S ⊂ Z_N with
no feasible {k}-subset, for N = 1..{n_max} and j = 1..{J}: outputs of the chain DP
``counting.bad_set_counts``, not fitted coefficients.
"""

J = {J}
ROWS = (
'''


def n_max(k: int) -> int:
    """The last row: the first J nodes N >= k+1 of every class mod k+1 end there."""
    return (k + 1) * (J + 1) - 1


def write_table(k: int) -> None:
    lines = []
    for N in range(1, n_max(k) + 1):
        t = time.perf_counter()
        lines.append(f"    ({', '.join(map(str, counting.bad_set_counts(N, k, J)))}),\n")
        print(f"k={k} N={N}: {time.perf_counter() - t:.2f} s", file=sys.stderr)
    header = HEADER.format(noun=NOUNS[k], k=k, n_max=n_max(k), J=J)
    (ROOT / "src" / "blindalign" / f"_{NOUNS[k]}s.py").write_text(header + "".join(lines) + ")\n")


def check(k: int) -> int:
    """Mismatches of the DP against the interpolation at the five N past the table."""
    import importlib  # only here: writing needs no old table

    rows = importlib.import_module(f"blindalign._{NOUNS[k]}s").ROWS
    bad = 0
    for N in range(n_max(k) + 1, n_max(k) + 6):
        t = time.perf_counter()
        dp = counting.bad_set_counts(N, k, J)
        table = counting._bad_sets(rows, k + 1, N, J)
        ok = dp == table
        bad += not ok
        print(f"k={k} N={N}: {'ok' if ok else f'DP {dp} != table {table}'} "
              f"({time.perf_counter() - t:.1f} s)")
    return bad


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="run the DP past each table and compare with the interpolation")
    args = ap.parse_args()
    if args.check:
        return 1 if sum(check(k) for k in NOUNS) else 0
    for k in NOUNS:
        write_table(k)
    return 0


if __name__ == "__main__":
    sys.exit(main())
