"""How likely is a feasible subset among K users with random offsets?

Offsets of users 2..K are uniform on [0, N); user 1 anchors the ring.
Three estimators are compared: exact counting (over the occupied box sets,
since which user sits where does not matter), the closed-form no-subset
counts, and seeded Monte Carlo. The closed form for pairs is exact for every
N; for triples it lower-bounds the bad events, so the derived probability
is an upper bound (tight on small grids).
"""

from blindalign import (
    exact_count,
    f_2user,
    f_low_3,
    monte_carlo_p,
    p_upper_3,
    probability_exact,
)

print("Triples at N=8: exact vs bound vs Monte Carlo")
print(f"{'K':>3} {'exact':>10} {'bound':>10} {'mc (1e5)':>10} {'mc +-':>8}")
for K in (3, 4, 5, 6):
    exact = probability_exact(8, K, 3)
    bound = p_upper_3(8, K)
    mc = monte_carlo_p(8, K, 3, trials=100_000, seed=11)
    print(f"{K:>3} {exact.p:>10.6f} {bound.p:>10.6f} {mc.p:>10.6f} {mc.half_width:>8.5f}")

print("\nno-subset counts behind the N=8 column (exact vs formula):")
for K in (3, 4, 5):
    print(f"  K={K}: exact {exact_count(8, K, 3).value}, "
          f"closed form {f_low_3(8, K).value} of {8 ** (K - 1)} placements")

print("\nPairs: the closed form is exact for every N (spot checks against exact_count):")
for N, K in ((6, 2), (8, 3), (12, 4), (22, 5)):
    formula = f_2user(N, K).value
    exact = exact_count(N, K, 2).value
    print(f"  N={N:>2} K={K}: formula {formula} == exact count {exact}")

print("\nHow many users guarantee ~95% success at N=60 (1e5 trials each)?")
print(f"{'K':>3} {'P(2-user subset)':>18} {'P(3-user subset)':>18}")
for K in (3, 4, 5, 6, 8, 10, 11, 12):
    p2 = monte_carlo_p(60, K, 2, trials=100_000, seed=7)
    p3 = monte_carlo_p(60, K, 3, trials=100_000, seed=7) if K >= 3 else None
    p3text = f"{p3.p:>18.4f}" if p3 else " " * 18
    print(f"{K:>3} {p2.p:>18.4f} {p3text}")

print("\nAt N=60 the pair probability crosses 95% at K=6 (K=5 gives 0.9441,")
print("exactly 1 - 723901/60^4); the triple probability crosses at K=11.")
print("For pairs at K=5 small N can help: 95% holds only at N=5 and at the")
print("multiples of 3 up to 27, and never for N >= 28.")
for N in (12, 20, 22, 23, 24, 27, 30, 60):
    p = 1 - f_2user(N, 5).value / N**4
    print(f"  exact P(N={N:>2}, K=5, pairs) = {p:.6f}")
