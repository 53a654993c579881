"""Torsion-layer microbenchmark: microseconds per TorsionContext.powers chain.

Forms [1, x, ..., x^(N-1)] for x the torsion value of a monic unit, from an
empty memo each time, three ways:

- full:      every power, one ring.power_step each;
- class:     only the x^j with j in one class mod q-1, x^(q-1) formed first
             and then one power_step by it per entry;
- class+rel: the same class, every x^j with j >= q^deg n from the Carlitz
             relation C_n(x) = 0 (a dot of scalar pairs, no power_step),

in three rings, with the class their workloads read:

- normproj:     t^2+2 over F_5, constants F_25 (dim 24), N = 30, class 1;
- congruence:   t^2+1 over F_3, constants F_9 (dim 8, n = 2), N = 30,
                class 1;
- distribution: t(t^2+1) over F_3 (dim 16), N = 27, class 0.

Each figure is the best of 7 repeats of a timed loop, followed by the
number of power_steps the chain makes.

Run from anywhere, with no arguments:

    python tests/powers_micro.py

It is not a test module, so pytest does not collect it.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from drinfeld.algebra import finite_field, parse_pol  # noqa: E402
from drinfeld.carlitz import TorsionContext  # noqa: E402

REPEATS = 7


def per_chain_us(ctx, x, args):
    """Best microseconds per ctx.powers(x, *args) from an empty memo."""
    def loop(times):
        start = time.perf_counter()
        for _ in range(times):
            ctx._powers.clear()
            ctx.powers(x, *args)
        return time.perf_counter() - start
    loops = 1
    while loop(loops) < 0.02:
        loops *= 2
    return min(loop(loops) for _ in range(REPEATS)) / loops * 1e6


def steps_of(ctx, x, args):
    """The power_steps of one chain from an empty memo."""
    ring_type = type(ctx.ring)
    step = ring_type.power_step
    made = []
    ring_type.power_step = lambda ring, prev, y: made.append(y) or step(
        ring, prev, y)
    try:
        ctx._powers.clear()
        ctx.powers(x, *args)
    finally:
        ring_type.power_step = step
    return len(made)


def main():
    f3, f5 = finite_field(3), finite_field(5)
    cases = [
        ("normproj t^2+2 F_25 dim 24", parse_pol(f5, "t^2+2"), 2, 30, 1),
        ("congruence t^2+1 F_9 dim 8", parse_pol(f3, "t^2+1"), 2, 30, 1),
        ("distribution t(t^2+1) F_3 dim 16",
         parse_pol(f3, "t^2+1") * parse_pol(f3, "t"), 1, 27, 0),
    ]
    kinds = ("full", "class", "class+rel")
    print("%-34s" % "ring (us per chain)"
          + "".join("%16s" % k for k in kinds))
    for name, n, ext, N, cls in cases:
        ctx = TorsionContext(n, ext_degree=ext)
        beta = [b for b in ctx.units() if b.is_monic()][-1]
        x = ctx.exp_value(beta)
        cells = []
        for args in ((N,), (N, cls), (N, cls, n)):
            us = per_chain_us(ctx, x, args)
            cells.append("%9.1f (%3d)" % (us, steps_of(ctx, x, args)))
        print("%-34s" % name + "".join("%16s" % c for c in cells))


if __name__ == "__main__":
    main()
