"""From certificate to verified schedule: slots, beamforming, rank checks.

Builds the slot schedule for a feasible channel, shows the super-symbol
threads, then runs the numerical witness: per-thread indicator beamforming,
interference-alignment residuals (should be at rounding level) and
decodability at every receiver on random per-block channel draws.
"""

from blindalign import (
    ChannelConfig,
    beamforming_vectors,
    build_schedule,
    check_config,
    closed_form_solution,
    group_profile,
    pattern_matrix,
    validate_schedule,
    verify_schedule_end_to_end,
)

cfg = ChannelConfig(N=4, offsets=(0, 1, 2))
rep = check_config(cfg)
lam = closed_form_solution(rep.s)
sched = build_schedule(cfg, lam)

print(f"N={cfg.N}, offsets={cfg.offsets}, lambda={lam}")
# a schedule is two arrays: start_groups (T,) and slots (T, K+1)
print(f"period = (K+1)*N = {sched.period} slots, {len(sched.slots)} threads:")
for g, row in zip(sched.start_groups.tolist(), sched.slots.tolist()):
    wrapped = " (wraps past the period)" if max(row) >= sched.period else ""
    print(f"  start group {g:2d}: slots {tuple(row)}{wrapped}")

report = validate_schedule(sched)
print(f"\nstructural validation: coverage={report.coverage_ok} "
      f"consecutive={report.consecutive_ok} patterns={report.patterns_ok} "
      f"certificate={report.certificate_ok}")

# one thread in detail
slots = sched.slots[0]
M = pattern_matrix(cfg, slots)
v = beamforming_vectors(M)
print(f"\nthread {tuple(slots.tolist())}: pattern matrix rows {M.tolist()}")
print("indicator vectors (same on both transmit antennas):")
for i, row in enumerate(v, start=1):
    print(f"  user {i}: {row}")

summary = verify_schedule_end_to_end(cfg, sched, seed=42, trials=200)
print(f"\nfull schedule, {summary.trials} independent channel draws:")
print(f"  worst alignment residual {summary.max_residual:.2e}")
print(f"    at {summary.residual_witness}")
print(f"  worst decodability sigma {summary.min_singular:.2e}")
print(f"    at {summary.singular_witness}")
print(f"  {summary.n_tuples} threads in {summary.n_distinct} start groups; only the "
      f"first thread of each is checked")
print(f"  verdict: {'PASS' if summary.passed else 'FAIL'}, "
      f"{summary.symbols_per_slot} symbols/slot "
      f"(= 2K/(K+1) = {float(summary.symbols_per_slot):g})")

print("\nsame pipeline at K=4 (8/5 symbols per slot):")
cfg4 = ChannelConfig(N=10, offsets=(0, 2, 5, 8))
sched4 = build_schedule(cfg4, closed_form_solution(group_profile(cfg4)))
summary4 = verify_schedule_end_to_end(cfg4, sched4, seed=1, trials=100)
print(f"  N={cfg4.N} offsets={cfg4.offsets}: passed={summary4.passed}, "
      f"{summary4.symbols_per_slot} symbols/slot")

print("\nevenly spread offsets: many threads, few distinct ones")
cfg_even = ChannelConfig(N=6000, offsets=(0, 1500, 3000, 4500))
summary_even = verify_schedule_end_to_end(
    cfg_even, build_schedule(cfg_even, closed_form_solution(group_profile(cfg_even))),
    seed=1, trials=2)
print(f"  N={cfg_even.N} offsets={cfg_even.offsets}: {summary_even.n_tuples} threads, "
      f"{summary_even.n_distinct} distinct, passed={summary_even.passed}")
