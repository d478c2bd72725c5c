"""Differentially private value release, with and without noise.

The filter mechanism corrects the submitted function to (almost)
Lipschitz before noising, so a spiked value cannot widen the sensitivity.
The binary search mechanism finds the value by noisy halving and only
ever looks at f through narrow clipped windows.
"""
import random
from fractions import Fraction

from lipfilter import (
    BinarySearchMechanism,
    CallableFunction,
    FilterMechanism,
    Hypercube,
    Hypergrid,
    NoiseSource,
    Seed,
    TableFunction,
)

seed = Seed.from_int(21)
eps = 1

# --- filter mechanism on a 4x4 grid ------------------------------------

grid = Hypergrid(4, 2)
values = {x: Fraction(min(x[0] + x[1] - 2, 4)) for x in grid.vertices()}
values[(2, 2)] = Fraction(4)  # a lie; true neighborhood says ~2
f = TableFunction(grid, values, 4)

mech = FilterMechanism(grid, f, eps, seed)
query = (2, 2)
print("filter mechanism, query", query)
print("  submitted value:  ", f.lookup(query))
print("  filtered (no noise):", mech.answer(query))
noise = NoiseSource(Seed.from_int(22))
for k in range(3):
    print(f"  noisy release {k}:   {float(mech.answer(query, noise)):+.3f}")
print()

# --- binary search mechanism on a 12-cube ------------------------------

cube = Hypercube(12)
g = CallableFunction(cube, lambda x: Fraction(sum(x)), 12)
bs = BinarySearchMechanism(cube, g, eps, seed)
print(f"binary search mechanism: r={bs.r}, probes={list(bs._probes())}, "
      f"alpha={float(bs.alpha):.2f}")

rng = random.Random(5)
x = tuple(rng.randrange(2) for _ in range(12))
exact = bs.answer(x)
print(f"  query {x}")
print(f"  f(x) = {g.lookup(x)}")
print(f"  noise-free: value={exact.value} after {exact.iterations} probe(s)")
noisy = bs.answer(x, NoiseSource(Seed.from_int(23)))
print(f"  noisy:      value={float(noisy.value):+.3f} "
      f"after {noisy.iterations} probe(s)")
