"""Series-layer microbenchmark: microseconds per pass of the two sums of
G_k(u(cz)) over monic c that the `eis-rank` workload runs.

- carlitz: carlitz_coeffs for the 40 monics of degree <= 3 over F_3, into
           one memo (as on a context) and with no memo;
- u_of_az: u(cz) to precision 36 for the same 40 monics, in three
           contexts of t^2+1 over F_3: exact (constants F_3), exact with
           constants F_9 (n = 2 digits per slot), and its first residue
           point (F_9 as A/Q), the one `eis-rank` ranks over;
- components: eisenstein_components(ctx, k, t^2+1, 36), k = 1, 2, 3, at
           that residue point.

Every pass starts from a context with empty memos (TorsionContext._attach
on its own ring), so nothing is read from an earlier pass.  Each figure is
the best of 7 repeats of a timed loop.

Run from anywhere, with no arguments:

    python tests/series_micro.py

It is not a test module, so pytest does not collect it.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from drinfeld.algebra import (finite_field, monics_up_to_degree,  # noqa: E402
                              parse_pol)
from drinfeld.carlitz import TorsionContext, carlitz_coeffs  # noqa: E402
from drinfeld.series import eisenstein_components, u_of_az  # noqa: E402

PRECISION = 36          # as in the eis-rank workload
REPEATS = 7


def per_pass_us(run):
    """Best microseconds per run() over REPEATS timed loops."""
    def loop(times):
        start = time.perf_counter()
        for _ in range(times):
            run()
        return time.perf_counter() - start
    loops = 1
    while loop(loops) < 0.02:
        loops *= 2
    return min(loop(loops) for _ in range(REPEATS)) / loops * 1e6


def fresh(ctx, work):
    """work(ctx) after emptying every memo of ctx."""
    def run():
        ctx._attach(ctx.ring)
        work(ctx)
    return run


def main():
    f3 = finite_field(3)
    level = parse_pol(f3, "t^2+1")
    monics = list(monics_up_to_degree(f3, 3))
    assert len(monics) == 40
    exact = TorsionContext(level)
    f9 = TorsionContext(level, ext_degree=2)
    point = next(exact._reductions())

    def coeffs_one_memo():
        memo = {}
        for a in monics:
            carlitz_coeffs(a, memo)

    def coeffs_no_memo():
        for a in monics:
            carlitz_coeffs(a)

    def u_all(ctx):
        for a in monics:
            u_of_az(ctx, a, PRECISION)

    rows = [("carlitz, one memo", coeffs_one_memo),
            ("carlitz, no memo", coeffs_no_memo),
            ("u_of_az exact F_3", fresh(exact, u_all)),
            ("u_of_az exact F_9 (n=2)", fresh(f9, u_all)),
            ("u_of_az residue F_9", fresh(point, u_all))]
    rows += [("components k=%d residue" % k, fresh(point, lambda ctx, k=k: (
        eisenstein_components(ctx, k, level, PRECISION)))) for k in (1, 2, 3)]
    print("%-28s%12s" % ("pass", "us"))
    for name, run in rows:
        print("%-28s%12.1f" % (name, per_pass_us(run)))


if __name__ == "__main__":
    main()
