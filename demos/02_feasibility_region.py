"""Feasibility of offset configurations and the 3-user feasible region.

The one condition that matters: every circular gap between offsets must
reach N/(K+1). This script checks a few configurations three equivalent
ways, then draws the (offset_2, offset_3) feasible region for N=20 and
N=21 the way a quick terminal plot would.
"""

from blindalign import (
    ChannelConfig,
    check_config,
    check_feasible,
    feasible_region,
    find_feasible_subset,
    group_profile,
)

cases = [
    ChannelConfig(4, (0, 1, 2)),
    ChannelConfig(8, (0, 3, 3)),     # duplicate offsets: always infeasible
    ChannelConfig(20, (0, 5, 10)),
    ChannelConfig(16, (0, 2, 8)),    # one gap too small
    ChannelConfig(12, (0, 5)),       # 2-user case, same condition
]
for cfg in cases:
    rep = check_config(cfg)
    agree = (rep.feasible
             == check_feasible(rep.s)
             == (find_feasible_subset(cfg.offsets, cfg.N, cfg.K) is not None))
    print(f"N={cfg.N:>2} offsets={str(cfg.offsets):<12} s={str(list(rep.s)):<12} "
          f"min gap {rep.min_gap} vs {float(rep.threshold):.3g}  "
          f"feasible={rep.feasible}  (3 formulations agree: {agree})")

print("\nWeak vs full condition on gap profiles:")
for s in [(1, 1, 2), (1, 1, 3), (3, 3, 7)]:
    print(f"  s={s}: max<=2*min {max(s) <= 2 * min(s)}, sum<=4*min {check_feasible(s)}")

for N in (20, 21):
    region = feasible_region(N)
    print(f"\nFeasible region for N={N}: {region.count} of {N * N} points "
          f"(ratio {region.ratio:.4g})")
    for n3 in range(N - 1, -1, -1):
        row = "".join("#" if (n2, n3) in region else "." for n2 in range(N))
        print(f"  {n3:2d} {row}")
    print("     " + "".join(str(n2 % 10) for n2 in range(N)))

# Among many users, scan for the first subset that works on its own.
offsets = (0, 1, 10, 5)
print(f"\nSubset search, N=12, offsets {offsets}:")
for k in (2, 3):
    print(f"  best {k}-user subset: {find_feasible_subset(offsets, 12, k)}")
sub = find_feasible_subset(offsets, 12, 3)
sub_cfg = ChannelConfig(12, tuple(offsets[u - 1] for u in sub))
print(f"  gaps of that subset: {list(group_profile(sub_cfg))}")
