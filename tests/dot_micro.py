"""Ring-layer microbenchmark: microseconds per QuotientRing.dot of one pair.

Times one pair of each kind that the series layer multiplies:

- const:  a prime-field constant times a torsion value (a translate);
- s*s:    two exponent-free elements (u(tz) coefficients, in F_q[theta]);
- s*t:    an exponent-free element times a torsion value;
- t*t:    two torsion values (exp_value of two units),

in two rings: the dim-16 ring of t(t^2+1) over F_3 that the `distribution`
workload multiplies in, and the dim-8 ring of t^2+1 over F_9 (n = 2 digits
per slot) of the `eigen` suite's twisted Eisenstein series.  Each figure is
the best of 7 repeats of a timed loop, so torsion operands read their
column caches warm.

Run from anywhere, with no arguments:

    python tests/dot_micro.py

It is not a test module, so pytest does not collect it.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from drinfeld.algebra import Pol, finite_field, parse_pol  # noqa: E402
from drinfeld.carlitz import TorsionContext  # noqa: E402
from drinfeld.series import u_of_az  # noqa: E402

PRECISION = 27          # as in the distribution workload
REPEATS = 7


def per_call_us(ring, pair):
    """Best microseconds per ring.dot((pair,)) over REPEATS timed loops."""
    pairs = (pair,)
    loops = 1
    while True:
        start = time.perf_counter()
        for _ in range(loops):
            ring.dot(pairs)
        if time.perf_counter() - start > 0.02:
            break
        loops *= 2
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(loops):
            ring.dot(pairs)
        best = min(best, time.perf_counter() - start)
    return best / loops * 1e6


def sample_pairs(ctx):
    """{kind: (a, b)} from the context's own scalars and torsion values."""
    t = Pol.x(ctx.field)
    coeffs = [c for c in u_of_az(ctx, t, PRECISION).coeffs if c]
    s1, s2 = coeffs[len(coeffs) // 2], coeffs[-1]
    a, b = ctx.units()[1:3]
    t1, t2 = ctx.exp_value(a), ctx.exp_value(b)
    return {"const": (ctx.ring.from_const(2), t1), "s*s": (s1, s2),
            "s*t": (s1, t1), "t*t": (t1, t2)}


def main():
    f3 = finite_field(3)
    rings = [
        ("distribution t(t^2+1) F_3 dim 16",
         TorsionContext(parse_pol(f3, "t^2+1") * parse_pol(f3, "t"))),
        ("eigen t^2+1 F_9 dim 8 n=2",
         TorsionContext(parse_pol(f3, "t^2+1"), ext_degree=2)),
    ]
    kinds = ("const", "s*s", "s*t", "t*t")
    print("%-34s" % "ring (us per dot)" + "".join("%9s" % k for k in kinds))
    for name, ctx in rings:
        pairs = sample_pairs(ctx)
        assert all(x.is_scalar() for x in pairs["s*s"])
        assert not any(x.is_scalar() for x in pairs["t*t"])
        print("%-34s" % name + "".join(
            "%9.2f" % per_call_us(ctx.ring, pairs[k]) for k in kinds))


if __name__ == "__main__":
    main()
