"""Walk through the block-fading model and super-symbol channel patterns.

A homogeneous broadcast channel gives every user the same coherence time N
but independent block boundaries. This script draws the joint block layout
as a table, shows how groups of constant joint state arise, and checks
which slot selections form feasible (permutation-pattern) super-symbols.
"""

import math

import numpy as np

from blindalign import (
    ChannelConfig,
    block_index,
    enumerate_feasible_patterns,
    group_profile,
    group_slots,
    is_feasible_pattern,
    pattern_matrix,
)

cfg = ChannelConfig(N=4, offsets=(0, 1, 2))
print(f"Channel: N={cfg.N}, offsets={cfg.offsets} (user 1 is the benchmark)\n")

# Per-user block labels over the first 19 slots: equal labels = equal channel.
slots = range(19)
print("slot    " + " ".join(f"{n:2d}" for n in slots))
for user in range(1, cfg.K + 1):
    labels = " ".join(f"{block_index(cfg, user, n):2d}" for n in slots)
    print(f"user {user}  {labels}")

prof = group_profile(cfg)
print(f"\nGroup sizes (circular gaps between offsets): {list(prof)}"
      f"  -> repeat every {cfg.K} groups / {cfg.N} slots")
for g in range(6):
    print(f"  group {g}: slots {list(group_slots(cfg, g))}")

# A super-symbol takes K+1 slots; its pattern matrix marks which user's
# channel changes between consecutive picks.
print("\nPattern matrices of three slot selections:")
for sel in [(3, 4, 5, 6), (7, 8, 9, 10), (3, 5, 6, 7)]:
    M = pattern_matrix(cfg, sel)
    print(f"  slots {sel}: feasible={is_feasible_pattern(M)}")
    for row in M:
        print(f"    {row}")

print(f"\nFeasible patterns for K=3: {math.factorial(3)} (all 3x3 permutations)")
stacked = np.stack(list(enumerate_feasible_patterns(3)))
print(f"enumerated {len(stacked)} matrices; every row/column sums to 1: "
      f"{bool((stacked.sum(1) == 1).all() and (stacked.sum(2) == 1).all())}")
