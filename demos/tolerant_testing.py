"""Tolerant Lipschitz testing on the 8-cube.

Runs the tester on a function that is exactly Lipschitz and on one that
is 1/2-far from Lipschitz (doubled parity), printing the estimates it
bases its verdicts on.  Sample counts are scaled down from the
eps^-2 default so the demo finishes in seconds.
"""
from fractions import Fraction

from lipfilter import (
    CallableFunction,
    Hypercube,
    Interval,
    Seed,
    exact_l0_distance,
    tolerant_test,
)

d = 8
cube = Hypercube(d)
eps = Fraction(1, 10)
seed = Seed.from_int(33)

cone = CallableFunction(cube, lambda x: Fraction(min(sum(x), 2)), 2)
parity = CallableFunction(cube, lambda x: Fraction(2 * (sum(x) % 2)), 2)

for name, f in (("cone (Lipschitz)", cone), ("2 * parity", parity)):
    report = tolerant_test(cube, f, eps, seed, m=300, reps=3)
    verdict = "accept" if report.accept else "reject"
    ests = ", ".join(f"{float(e):.3f}" for e in report.estimates)
    print(f"{name:18} -> {verdict}  estimates [{ests}]  "
          f"threshold {float(report.params.threshold):.3f}")

dist = exact_l0_distance(cube, parity.restrict(Interval(Fraction(0), Fraction(2))))
print()
print(f"certified distance of 2*parity inside the [0,2] window: {dist}")
print(f"rejection is required above 2.01 * eps = {float(Fraction(201,100)*eps):.3f}")
