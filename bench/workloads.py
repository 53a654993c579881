"""The benchmark's workloads: seeded inputs, timed operations and checks.

A workload is a fixed list of operations (a *round*).  Each operation is a
pair of callables: ``run()`` does the library work that is timed, and
``check(out)`` turns its output into ``(ok, canonical_text)``.  The check
is independent of the seed: every member of an input family satisfies the
same identity.  ``canonical_text`` is what the digest is taken over, so two
commits can be compared byte for byte.

Every operation builds its own ``TorsionContext`` and characters, so the
per-context caches start cold, as they do for one ``drinfeld`` invocation.
Module-level tables are filled once by ``warm()`` during set-up.

Import this module only after ``src/`` is on ``sys.path``.
"""

import hashlib
import json
import random
from itertools import product

from drinfeld import cli, forms
from drinfeld.algebra import (Pol, factor_squarefree_monic, finite_field,
                              irreducible_monics, parse_pol,
                              polys_below_degree)
from drinfeld.carlitz import TorsionContext, goss_polys
from drinfeld.characters import DirichletCharacter, convolve, jacobi_factor
from drinfeld.operators import _modulus_power
from drinfeld.series import (UExpansion, goss_coeffs_in, moebius_of_series,
                             poly_eval_series, u_of_az)

# Input families: every member has the same degree, so every member obeys
# the same identity and costs about the same.
QUADRATICS = ("t^2+1", "t^2+t+2", "t^2+2t+2")   # the monic primes of degree 2 over F_3
LINEARS = ("t", "t+1", "t+2")                   # the monic primes of degree 1 over F_3

RANK_PRECISION = 36      # as in `drinfeld verify --suite rank`
DIST_PRECISION = 27      # as in acceptance criterion 08
DIST_WEIGHT = 2

# The nonzero (j, i) pairs of the q = 5, modulus t^2+2 character-sum table,
# 1 <= i, j <= 23: the benchmark's own frozen oracle for the `table` op.
GOLDEN_TABLE = {
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

WORKLOADS = ("eis-rank", "distribution", "verify-mix")


class Op:
    """One timed operation of a round."""

    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def warm():
    """Fill the module-level tables every workload reads: the finite fields
    and their embeddings, and the Goss polynomials up to weight 3."""
    for p, n in ((3, 1), (3, 2), (5, 1), (5, 2)):
        finite_field(p, n)
    for p in (3, 5):
        small, big = finite_field(p), finite_field(p, 2)
        big.embedding(small)
        big.embedding(big)
        small.embedding(small)
        for k in (1, 2, 3):
            goss_polys(small, k)


def _reports_check(reports):
    return (all(r.passed for r in reports),
            "\n".join(r.to_json() for r in reports))


# -- eis-rank ------------------------------------------------------------------

def eis_rank_ops(ptext, N=RANK_PRECISION, weights=(1, 2, 3)):
    """forms.eisenstein_rank(p, k, N) for each weight k; the rank must be
    2(|p| - 1)/(q - 1)."""
    ops = []
    for k in weights:
        def run(k=k):
            field = cli.field_of_order(3)
            return forms.eisenstein_rank(parse_pol(field, ptext), k, N)

        def check(rank, k=k):
            q = 3
            deg = parse_pol(finite_field(q), ptext).degree
            want = 2 * (q ** deg - 1) // (q - 1)
            text = json.dumps({"p": ptext, "k": k, "N": N, "rank": rank},
                              sort_keys=True)
            return rank == want, text
        ops.append(Op("rank-k%d" % k, run, check))
    return ops


# -- distribution --------------------------------------------------------------

def distribution_run(ptext, qtext, k, N):
    """Both sides of the distribution lemma of acceptance criterion 08:
    sum_{|beta|<|q|} G_k(u(c(z+beta)/q + a/p)) against q^k G_k(u(cz + aq/p))
    (or 0 when q | c), as v-series in the joint p,q-torsion ring."""
    field = cli.field_of_order(3)
    ppol, qpol = parse_pol(field, ptext), parse_pol(field, qtext)
    one = Pol.one(field)
    mod = ppol * qpol
    ctx = TorsionContext(mod)
    cs = [parse_pol(field, c) for c in ("1", "t", "t+1", "t+2")]
    betas = polys_below_degree(field, qpol.degree)
    gk = goss_coeffs_in(ctx, k)
    qk = _modulus_power(ctx, qpol, k)
    out = []
    for c in cs:
        Uc = u_of_az(ctx, c, N)
        for a in ctx.units(ppol):
            lhs = UExpansion.zero(ctx, N)
            for beta in betas:
                t = (c * beta * ppol + a * qpol) % mod
                lhs = lhs + poly_eval_series(
                    gk, moebius_of_series(Uc, ctx.exp_value(t)))
            if c.gcd(qpol) == one:
                Ucq = u_of_az(ctx, c * qpol, N)
                ert = ctx.exp_value((a * qpol * qpol) % mod)
                rhs = poly_eval_series(
                    gk, moebius_of_series(Ucq, ert)).scale(qk)
            else:
                rhs = UExpansion.zero(ctx, N)
            out.append((c.format(), a.format(), lhs, rhs))
    return out


def distribution_check(out):
    ok = True
    lines = []
    for ctext, atext, lhs, rhs in out:
        m = min(lhs.prec, rhs.prec)
        if lhs.truncate(m).first_difference(rhs.truncate(m)) is not None:
            ok = False
        lines.append("c=%s a=%s %s" % (ctext, atext, lhs.format()))
    return ok, "\n".join(lines)


def distribution_ops(ptext, qtext, k=DIST_WEIGHT, N=DIST_PRECISION):
    return [Op("lemma-k%d-%s-%s" % (k, ptext, qtext),
               lambda: distribution_run(ptext, qtext, k, N),
               distribution_check)]


# -- verify-mix ----------------------------------------------------------------

def eigen_suite(ptext, args):
    """`verify --suite eigen` with the seeded quadratic in place of t^2+1."""
    field = cli.field_of_order(3)
    th = Pol.x(field)
    p2 = parse_pol(field, ptext)
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


def convolution_suite(ptext):
    """`verify --suite convolution` with the seeded quadratic in place of
    t^2+1: the convolution identity for every character pair and every
    residue delta."""
    field = cli.field_of_order(3)
    th = Pol.x(field)
    moduli = [th, parse_pol(field, ptext), th * (th + Pol.one(field))]
    reports = []
    for npol in moduli:
        primes = factor_squarefree_monic(npol)
        ranges = [range(1, 3 ** p.degree - 1) for p in primes]
        chis = [DirichletCharacter(field, [(p, None, e)
                                           for p, e in zip(primes, exps)])
                for exps in product(*ranges)]
        witness = None
        count = 0
        for chi1, chi2 in product(chis, chis):
            scalar, prod = jacobi_factor(chi1, chi2)
            for delta in polys_below_degree(field, npol.degree):
                lhs = convolve(chi1, chi2, delta)
                rhs = chi1.big.mul(prod.eval(delta), scalar)
                count += 1
                if lhs != rhs and witness is None:
                    witness = "chi1=%r chi2=%r delta=%s" % (
                        chi1, chi2, delta.format())
        reports.append(forms.VerificationReport(
            "convolution", {"n": npol.format(), "checks": count},
            None, witness is None, witness))
    return reports


def table_run():
    field = cli.field_of_order(5)
    return cli.table_pairs(5, parse_pol(field, "t^2+2"), 23)


def table_check(pairs):
    golden = {(j, i) for j, row in GOLDEN_TABLE.items() for i in row}
    return set(pairs) == golden, cli.format_table(pairs, "json")


def verify_mix_ops(ptext):
    """The six `verify` suites other than `rank`.  `eigen`, `convolution`
    and `congruence` use the seeded quadratic; the others run exactly as
    the CLI runs them, with the CLI's default arguments."""
    args = cli.build_parser().parse_args(["verify"])

    def congruence():
        field = cli.field_of_order(3)
        p = parse_pol(field, ptext)
        return [forms.congruence_check(kind, p, args.s, args.precision)
                for kind in ("SF", "TwistedSF")]
    return [
        Op("eigen", lambda: eigen_suite(ptext, args), _reports_check),
        Op("twist-commute", lambda: cli.suite_twist_commute(args),
           _reports_check),
        Op("convolution", lambda: convolution_suite(ptext), _reports_check),
        Op("normproj", lambda: cli.suite_normproj(args), _reports_check),
        Op("congruence", congruence, _reports_check),
        Op("table", table_run, table_check),
    ]


# -- seeded rounds -------------------------------------------------------------

def build_round(workload, seed):
    """(description of the seeded inputs, the round's operations)."""
    rng = random.Random(seed)
    if workload == "distribution":
        # two pairs with distinct p: the lemma's cost depends mostly on p,
        # so a round over two of the three quadratics varies less by seed
        pairs = [(p, rng.choice(LINEARS)) for p in rng.sample(QUADRATICS, 2)]
        return ({"pairs": pairs},
                [op for p, q in pairs for op in distribution_ops(p, q)])
    p = rng.choice(QUADRATICS)
    if workload == "eis-rank":
        return {"p": p}, eis_rank_ops(p)
    if workload == "verify-mix":
        return {"p": p}, verify_mix_ops(p)
    raise ValueError("unknown workload %r; choose from %s"
                     % (workload, ", ".join(WORKLOADS)))
