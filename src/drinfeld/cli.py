"""Command-line surface.

Two verbs:
  table   -- the non-vanishing table of the character sums
             sum_beta beta(zeta)^(|n|-1-i) exp(beta/n)^j
  verify  -- run the exact verification suites, one JSON report per check.

All computation is exact; output is deterministic across runs.  Checks run
sequentially, which trivially respects any parallelism cap requested via
the DRINFELD_THREADS environment variable.
"""

import argparse
import itertools
import json
import os
import sys

from .algebra import (RF, Pol, check_size, factor_squarefree_monic,
                      finite_field, irreducible_monics, parse_int_coeffs,
                      parse_pol, polys_below_degree)
from .carlitz import TorsionContext
from .characters import (DirichletCharacter, convolve, jacobi_factor,
                         orbit_sums, root_power_rows)
from .errors import DrinfeldError
from .series import UExpansion, ModularMeta
from .operators import (hecke_u, twist_monomial_closed, twist_normalized,
                        twist_raw)
from . import forms
from .forms import VerificationReport


def prime_power(q):
    """(p, n) with q = p^n."""
    p = next((d for d in range(2, int(abs(q) ** 0.5) + 1) if q % d == 0), q)
    n, m = 0, q
    while m > 1 and m % p == 0:
        m //= p
        n += 1
    if q < 2 or m != 1:
        raise ValueError("q = %d is not a prime power" % q)
    return p, n


def field_of_order(q):
    """The finite field with q = p^n elements."""
    return finite_field(*prime_power(q))


# -- the table verb ----------------------------------------------------------

def table_pairs(q, npol, rng):
    """All (j, i) with 1 <= i, j <= rng such that
    sum_beta beta(zeta)^(|n|-1-i) exp(beta/n)^j is nonzero, where zeta is
    the canonical (smallest-code) root of the first prime factor of n: the
    orbit sums of the rows beta(zeta)^(-i), as beta(zeta)^(|n|-1) = 1 where
    beta(zeta) != 0, so only the rows i = j mod q-1 are summed."""
    ctx = TorsionContext(npol, ext_degree=npol.degree)
    zeta = min(ctx.primes[0].roots_in(ctx.big))
    rows = root_power_rows(ctx, zeta, range(-1, -rng - 1, -1))
    sums = orbit_sums(ctx, npol, rows, range(1, rng + 1))
    return [(j, r + 1) for j, accs in enumerate(sums, 1)
            for r, acc in accs.items() if acc]


def format_table(pairs, fmt):
    if fmt == "json":
        return json.dumps({"pairs": [list(p) for p in pairs]},
                          sort_keys=True)
    if fmt == "csv":
        lines = ["j,i"] + ["%d,%d" % p for p in pairs]
        return "\n".join(lines)
    if not pairs:
        return ""
    rows = {}
    for j, i in pairs:
        rows.setdefault(j, []).append(i)
    out = ["[j,i]:", ""]
    keys = sorted(rows)
    for idx, j in enumerate(keys):
        cells = ", ".join("[%d, %d]" % (j, i) for i in sorted(rows[j]))
        out.append(cells + ("." if idx == len(keys) - 1 else ","))
    return "\n".join(out)


def cmd_table(args):
    check_size(args.q)
    p, n = prime_power(args.q)
    terms = parse_int_coeffs(args.modulus, args.var)
    # the sums live in F_(q^deg); deg reads the terms mod p, as F_q would
    deg = max((k for k, c in terms.items() if c % p), default=0)
    check_size(args.q, deg)
    npol = Pol.from_int_coeffs(finite_field(p, n),
                               [terms.get(k, 0) for k in range(deg + 1)])
    pairs = table_pairs(args.q, npol, args.range)
    text = format_table(pairs, args.format)
    if text:
        print(text)
    return 0


# -- the verify verb ---------------------------------------------------------

def suite_eigen(args):
    field = finite_field(3)
    th = Pol.x(field)
    p2 = parse_pol(field, "t^2+1")
    primes = irreducible_monics(field, args.hecke_degree_bound)
    one = Pol.one(field)
    reports = []
    ctx = TorsionContext(th)
    for s in (1, 2, 3):
        f = forms.petrov_fs(ctx, s, 4)
        reports.append(forms.verify_eigensystem(
            f, primes, lambda qq: ctx.lift_poly(qq), args.precision))
    D = forms.delta(ctx, 4)
    reports.append(forms.verify_eigensystem(
        D, primes, lambda qq: ctx.lift_poly(qq ** 2), args.precision))
    Ep = forms.eisenstein_ep(ctx, th, 4)
    coprime = [qq for qq in primes if qq.gcd(th) == one]
    reports.append(forms.verify_eigensystem(
        Ep, coprime, lambda qq: ctx.lift_poly(qq), args.precision))
    ctx2 = TorsionContext(p2, ext_degree=2)
    coprime2 = [qq for qq in primes if qq.gcd(p2) == one]
    for k in (1, 2, 3):
        e = next(ee for ee in range(1, 8) if (ee + k) % 2 == 0)
        chi = DirichletCharacter.from_conductor(p2, e, big=ctx2.big)
        hat = forms.fricke_eis(ctx2, chi, k, 4)
        reports.append(forms.verify_eigensystem(
            hat, coprime2, lambda qq, k=k: ctx2.lift_poly(qq ** k),
            args.precision))
        tilde = forms.twisted_eis(ctx2, chi, k)

        def lam(qq, k=k, chi=chi):
            return ctx2.lift_poly(qq ** k).scale_const(chi.eval(qq))
        reports.append(forms.verify_eigensystem(
            tilde, coprime2, lam, args.precision))
    return reports


def suite_twist_commute(args):
    field = finite_field(3)
    th = Pol.x(field)
    n2 = th + Pol.one(field)
    ctx = TorsionContext(th * n2)
    chi = DirichletCharacter.from_conductor(n2, 1)
    Nin = args.precision
    bound = forms.bound_for_precision(field, Nin)
    f = forms.petrov_fs(ctx, 1, bound).render(Nin)
    lhs = hecke_u(twist_raw(f, chi, ctx), th, ctx)
    rhs = twist_raw(hecke_u(f, th, ctx), chi, ctx)
    rhs = rhs.scale_const(ctx.char_value(chi, th))
    m = min(lhs.prec, rhs.prec)
    d = lhs.difference(rhs)
    return [VerificationReport(
        "twist-commute", {"q": 3, "chi": repr(chi), "hecke": th.format()},
        m, d is None, d)]


def suite_convolution(args):
    field = finite_field(3)
    th = Pol.x(field)
    moduli = [th, parse_pol(field, "t^2+1"), th * (th + Pol.one(field))]
    reports = []
    for npol in moduli:
        primes = factor_squarefree_monic(npol)
        ranges = [range(1, 3 ** p.degree - 1) for p in primes]
        chis = [DirichletCharacter(field, [(p, None, e)
                                           for p, e in zip(primes, exps)])
                for exps in itertools.product(*ranges)]
        # values() follows polys_below_degree, whose order (base-q digits,
        # least significant first) puts the residues of a divisor first;
        # pairs with equal exponent sums share one product character
        residues = polys_below_degree(field, npol.degree)
        index = {r.c: i for i, r in enumerate(residues)}
        witness, count, tables = None, 0, {}
        for chi1, chi2 in itertools.product(chis, repeat=2):
            scalar, prod = jacobi_factor(chi1, chi2)
            if prod not in tables:
                tables[prod] = prod.values()
            values, n = tables[prod], prod.conductor
            for delta in residues:
                count += 1
                if convolve(chi1, chi2, delta) != chi1.big.mul(
                        values[index[(delta % n).c]], scalar):
                    witness = "chi1=%r chi2=%r delta=%s" % (
                        chi1, chi2, delta.format())
                    break
            if witness:
                break
        reports.append(VerificationReport(
            "convolution", {"n": npol.format(), "checks": count},
            None, witness is None, witness))
    return reports


def suite_normproj(args):
    reports = []
    cases = [(3, "t"), (5, "t^2+2")]
    for q, ntext in cases:
        field = field_of_order(q)
        npol = parse_pol(field, ntext)
        ctx = TorsionContext(npol, ext_degree=npol.degree)
        chi = DirichletCharacter.from_conductor(npol, 1, big=ctx.big)
        N = min(args.precision, 30)
        witness = None
        for i in range(1, 6):
            ui = UExpansion.monomial(ctx, i, N).with_meta(ModularMeta(0, 0))
            a = twist_normalized(ui, chi, ctx)
            b = twist_monomial_closed(i, chi, ctx, N)
            d = a.difference(b)
            if d is not None:
                witness = "i=%d at %s" % (i, d)
                break
        reports.append(VerificationReport("normproj-closed-form",
                                          {"q": q, "n": ntext}, N,
                                          witness is None, witness))
    # integrality of the normalized projection of f_1
    field = finite_field(3)
    th = Pol.x(field)
    ctx = TorsionContext(th)
    chi = DirichletCharacter.from_conductor(th, 1)
    N = min(args.precision, 30)
    f = forms.petrov_fs(ctx, 1, forms.bound_for_precision(field, N)).render(N)
    g = twist_normalized(f, chi, ctx)
    witness = None
    inv_den = g.den and RF.from_pol(g.den).inverse()  # values c / g.den
    for n, c in enumerate(g.nums):
        if not c.is_scalar():
            witness = "u^%d not torsion-free" % n
            break
        if c and inv_den and not (c.scalar_part() * inv_den).is_pol():
            witness = "u^%d not integral" % n
            break
    reports.append(VerificationReport("normproj-integrality",
                                      {"q": 3, "n": "t", "form": "f_1"}, N,
                                      witness is None, witness))
    return reports


def suite_congruence(args):
    field = finite_field(3)
    p2 = parse_pol(field, "t^2+1")
    return [forms.congruence_check("SF", p2, args.s, args.precision),
            forms.congruence_check("TwistedSF", p2, args.s, args.precision)]


def suite_rank(args):
    field = finite_field(3)
    th = Pol.x(field)
    p2 = parse_pol(field, "t^2+1")
    reports = []
    for ppol, N, want in ((th, 12, 2), (p2, 36, 8)):
        for k in (1, 2, 3):
            got = forms.eisenstein_rank(ppol, k, N)
            reports.append(VerificationReport(
                "rank", {"p": ppol.format(), "k": k, "expected": want},
                N, got == want, None if got == want else "rank %d" % got))
    return reports


GOLDEN_TABLE_ROWS = {
    1: (1, 5), 2: (2, 6, 10), 3: (3, 7, 11, 15), 4: (4, 8, 12, 16, 20),
    5: (1, 5), 6: (2, 6, 10), 7: (3, 7, 11, 15), 8: (4, 8, 12, 16, 20),
    9: (1, 5, 9, 13, 17, 21), 10: (2, 6, 10), 11: (3, 7, 11, 15),
    12: (4, 8, 12, 16, 20), 13: (1, 5, 9, 13, 17, 21),
    14: (2, 6, 10, 14, 18, 22), 15: (3, 7, 11, 15),
    16: (4, 8, 12, 16, 20), 17: (1, 5, 9, 13, 17, 21),
    18: (2, 6, 10, 14, 18, 22), 19: (3, 7, 11, 15, 19, 23),
    20: (4, 8, 12, 16, 20), 21: (1, 5, 9, 13, 17, 21),
    22: (2, 6, 10, 14, 18, 22), 23: (3, 7, 11, 15, 19, 23),
}


def golden_table_pairs():
    return {(j, i) for j, row in GOLDEN_TABLE_ROWS.items() for i in row}


def suite_table(args):
    field = field_of_order(5)
    npol = parse_pol(field, "t^2+2")
    pairs = set(table_pairs(5, npol, 23))
    golden = golden_table_pairs()
    ok = pairs == golden
    witness = None
    if not ok:
        extra = sorted(pairs - golden)[:3]
        missing = sorted(golden - pairs)[:3]
        witness = "extra=%s missing=%s" % (extra, missing)
    return [VerificationReport("table", {"q": 5, "n": "t^2+2", "range": 23},
                               None, ok, witness)]


SUITES = {
    "eigen": suite_eigen,
    "twist-commute": suite_twist_commute,
    "convolution": suite_convolution,
    "normproj": suite_normproj,
    "congruence": suite_congruence,
    "rank": suite_rank,
    "table": suite_table,
}


def cmd_verify(args):
    names = args.suite or sorted(SUITES)
    for name in names:
        if name not in SUITES:
            print("unknown suite %r; choose from %s"
                  % (name, ", ".join(sorted(SUITES))), file=sys.stderr)
            return 2
    if args.profile is None:
        return _run_suites(names, args)
    import cProfile
    profile = cProfile.Profile()
    try:
        return profile.runcall(_run_suites, names, args)
    finally:
        profile.dump_stats(args.profile)


def _run_suites(names, args):
    ok = True
    for name in names:
        for report in SUITES[name](args):
            print(report.to_json())
            ok = ok and report.passed
    return 0 if ok else 1


def _at_least(low):
    """An argparse type: an integer no smaller than low."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d" % low)
        return value
    parse.__name__ = "integer"
    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="drinfeld",
        description="Exact computations with Drinfeld modular forms: "
                    "character-sum tables and verification suites.")
    sub = parser.add_subparsers(dest="command")

    t = sub.add_parser("table", help="non-vanishing table of s(chi, k) sums")
    t.add_argument("--q", type=int, default=5)
    t.add_argument("--var", default="t")
    t.add_argument("--modulus", default="t^2+2")
    t.add_argument("--range", type=_at_least(0), default=23)
    t.add_argument("--format", choices=["text", "json", "csv"],
                   default="text")
    t.set_defaults(func=cmd_table)

    v = sub.add_parser("verify", help="run exact verification suites")
    v.add_argument("--suite", action="append",
                   help="suite name (repeatable); default: all")
    v.add_argument("--precision", type=_at_least(1), default=30)
    v.add_argument("--s", type=int, default=1)
    v.add_argument("--hecke-degree-bound", dest="hecke_degree_bound",
                   type=_at_least(1), default=2)
    v.add_argument("--profile", metavar="PATH",
                   help="write cProfile data of the suites to PATH")
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    threads = os.environ.get("DRINFELD_THREADS")
    if threads is not None and (not threads.isdigit() or int(threads) < 1):
        print("DRINFELD_THREADS must be a positive integer", file=sys.stderr)
        return 2
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except (DrinfeldError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
