"""Decomposition certificates: the cyclic window system and its solutions.

Feasibility is equivalent to solving sum(lam[i-K..i]) == s[i % K] in
nonnegative integers over one period of K(K+1) groups. lam[g] counts the
super-symbol threads starting at group g. The solutions form a simplex
in closed form: lam[i] = s[i % K] - min(s) + y[i % (K+1)] with y >= 0
summing to the slack (K+1)*min(s) - N. This script shows two vertices of
it (the two closed-form constructors), lists the whole family and its
count, and shows an instance where the certificate is not unique.
"""

from blindalign import (
    certificate_count,
    closed_form_solution,
    closed_form_solution_3user,
    enumerate_certificates,
    verify_solution,
)

s = (3, 3, 5)  # N=11, e.g. offsets (0, 3, 6)
print(f"Gap profile s={s}, N={sum(s)}; feasibility: {sum(s)} <= 4*{min(s)}\n")

lam_a = closed_form_solution(s)
lam_b = closed_form_solution_3user(s)
print(f"general closed form:  {lam_a}")
print(f"3-user closed form:   {lam_b}")
print(f"both verify: {verify_solution(s, lam_a)} {verify_solution(s, lam_b)}, "
      f"both sum to N: {sum(lam_a)} {sum(lam_b)}\n")

solutions = list(enumerate_certificates(s))
slack = 4 * min(s) - sum(s)
print(f"the closed-form solution family has certificate_count(s) = "
      f"{certificate_count(s)} = C({slack} + 3, 3) certificates (slack {slack}):")
for lam in solutions:
    print(f"  {lam}  (lambda_2 = {lam[2]})")
print("certificates are not unique: lambda_2 takes values",
      sorted({lam[2] for lam in solutions}), "\n")

print("window sums of the general closed form (every width-4 cyclic window")
print("must reproduce the extended gap sequence):")
m = 12
ext = [s[i % 3] for i in range(m)]
sums = [sum(lam_a[(i - d) % m] for d in range(4)) for i in range(m)]
print(f"  target:  {ext}")
print(f"  windows: {sums}")

print("\nAn infeasible profile has no certificate at all:")
bad = (3, 3, 7)
print(f"  s={bad}: sum {sum(bad)} > 4*min {4 * min(bad)}; "
      f"the solution family holds {certificate_count(bad)}: {list(enumerate_certificates(bad))}")

print("\nLarger K uses the same machinery (K=5 here):")
s5 = (4, 4, 5, 5, 6)
lam5 = closed_form_solution(s5)
print(f"  s={s5}: certificate verifies: {verify_solution(s5, lam5)}")
