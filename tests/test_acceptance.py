"""Acceptance suite: thirteen exact-arithmetic criteria, one pass/fail line
each.  Every comparison is coefficient-exact (tolerance zero); any mismatch
is reported with its witness."""

from argparse import Namespace

from drinfeld import cli, forms
from drinfeld.algebra import (Pol, finite_field, lucas_binomial, parse_pol,
                              polys_below_degree)
from drinfeld.carlitz import TorsionContext, goss_polys
from drinfeld.characters import DirichletCharacter
from drinfeld.operators import (hecke_a, hecke_u, twist_normalized, twist_raw,
                                _modulus_power)
from drinfeld.series import (ModularMeta, UExpansion, goss_coeffs_in,
                             moebius_of_series, poly_eval_series, u_of_az)

from goss_oracle import goss_generating

F3 = finite_field(3)
TH = Pol.x(F3)


def pol3(text):
    return parse_pol(F3, text)


def verdict(num, name, ok, detail=None):
    line = "CRITERION %02d %-28s %s" % (num, name, "PASS" if ok else "FAIL")
    if detail and not ok:
        line += "  (%s)" % detail
    print(line)
    return ok


def ns(**kw):
    base = dict(precision=30, s=1, hecke_degree_bound=2, q=3, var="t",
                modulus=None, char=None, weight=None, type_=None, suite=None)
    base.update(kw)
    return Namespace(**base)


# the nonzero (j, i) pairs of the q = 5, modulus theta^2+2 character-sum
# table, 1 <= i, j <= 23, frozen as the oracle for criterion 1
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


def test_criterion_01_table_reproduction():
    field = cli.field_of_order(5)
    npol = parse_pol(field, "t^2+2")
    got = set(cli.table_pairs(5, npol, 23))
    want = {(j, i) for j, row in GOLDEN_TABLE.items() for i in row}
    ok = got == want
    detail = None
    if not ok:
        detail = "extra=%s missing=%s" % (sorted(got - want)[:3],
                                          sorted(want - got)[:3])
    assert verdict(1, "table-reproduction", ok, detail)


def test_criterion_02_convolution_lemma():
    reports = cli.suite_convolution(ns())
    assert len(reports) == 3  # conductors theta, theta^2+1, theta(theta+1)
    bad = [r for r in reports if not r.passed]
    assert verdict(2, "convolution-lemma", not bad,
                   bad[0].witness if bad else None)


def test_criterion_03_eigen_systems():
    reports = cli.suite_eigen(ns())
    # f_s (3) + Delta + E_p + (EHat, ETilde) for k = 1, 2, 3
    assert len(reports) == 11
    bad = [r for r in reports if not r.passed]
    assert verdict(3, "eigen-systems", not bad,
                   bad[0].witness if bad else None)


def test_criterion_04_hecke_engine_consistency():
    # the u-engine needs q-torsion, so the ring carries both Hecke primes;
    # the character lives at the coprime conductor theta^2+1
    p2 = pol3("t^2+1")
    ctx = TorsionContext(TH * pol3("t+1"), ext_degree=2)
    chi = DirichletCharacter.from_conductor(p2, 1, big=ctx.big)
    catalog = [
        ("f_1", forms.petrov_fs(ctx, 1, 3)),
        ("Delta", forms.delta(ctx, 3)),
        ("E_p", forms.eisenstein_ep(ctx, p2, 3)),
        ("EHat", forms.fricke_eis(ctx, chi, 1, 3)),
    ]
    N = 27
    detail = None
    for name, F in catalog:
        f = F.render(N)
        for qpol in (TH, pol3("t+1")):
            lhs = hecke_u(f, qpol, ctx)
            rhs = hecke_a(F, qpol).render(N // 3 ** qpol.degree)
            m = min(lhs.prec, rhs.prec)
            d = lhs.truncate(m).first_difference(rhs.truncate(m))
            if d is not None:
                detail = "%s, q=%s, u^%d" % (name, qpol.format(), d)
                break
        if detail:
            break
    assert verdict(4, "hecke-engine-consistency", detail is None, detail)


def test_criterion_05_twist_hecke_commutation():
    reports = cli.suite_twist_commute(ns(precision=30))
    ok = all(r.passed for r in reports) and all(
        r.precision >= 9 for r in reports)
    assert verdict(5, "twist-hecke-commutation", ok,
                   None if ok else reports[0].witness)


def test_criterion_06_normalized_projection():
    reports = cli.suite_normproj(ns(precision=30))
    assert len(reports) == 3  # closed form at q=3, q=5; f_1 integrality
    bad = [r for r in reports if not r.passed]
    assert verdict(6, "normalized-projection", not bad,
                   bad[0].witness if bad else None)


def test_criterion_07_twist_composition():
    # two raw twists at conductor theta collapse to a single twist by the
    # product character, scaled by n^(2s1+2m-k) * (-1)^(j+1) C(|p|-1-k2, j)
    ctx = TorsionContext(TH)
    size = 3
    detail = None
    f1 = forms.petrov_fs(ctx, 1, 3)
    targets = [("u", UExpansion.u(ctx, 20).with_meta(ModularMeta(0, 0))),
               ("f_1", f1.render(20))]
    for j in range(1, size - 1):
        for k in range(1, size - 1):
            chi1 = DirichletCharacter.from_conductor(TH, j, big=ctx.big)
            chi2 = DirichletCharacter.from_conductor(TH, k, big=ctx.big)
            for name, f in targets:
                lhs = twist_raw(twist_raw(f, chi1, ctx), chi2, ctx)
                scalar = _modulus_power(
                    ctx, TH, 2 * chi1.sign + 2 * f.meta.type_ - f.meta.weight)
                sign = 2 if (j + 1) % 2 else 1
                b = lucas_binomial(size - 1 - k, j, 3) % 3
                code = ctx.big.embedding(F3)[F3.mul(sign, b)]
                rhs = twist_raw(f, chi1 * chi2, ctx).scale(scalar)
                rhs = rhs.scale_const(code)
                if not lhs.agrees_with(rhs):
                    detail = "j=%d k=%d on %s" % (j, k, name)
    assert verdict(7, "twist-composition", detail is None, detail)


def _lemma_difference(ctx, ppol, qpol, k, cs, N):
    """None when sum over |beta| < |q| of G_k(u(c(z+beta)/q + a/p)) equals
    q^k G_k(u(cz + a q/p)) (gcd(c, q) = 1) or 0 (otherwise) for every c in
    cs and every unit a mod p, else the first failing c, a and v^n."""
    mod = ppol * qpol
    one = Pol.one(ctx.field)
    betas = polys_below_degree(ctx.field, qpol.degree)
    gk = goss_coeffs_in(ctx, k)
    qk = _modulus_power(ctx, qpol, k)
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
            m = min(lhs.prec, rhs.prec)
            d = lhs.truncate(m).first_difference(rhs.truncate(m))
            if d is not None:
                return "k=%d c=%s a=%s at v^%d" % (
                    k, c.format(), a.format(), d)
    return None


def test_criterion_08_distribution_lemma():
    # sum over |beta| < |q| of G_k(u(c(z+beta)/q + a/p)) equals
    # q^k G_k(u(cz + a q/p)) when gcd(c, q) = 1 and 0 otherwise,
    # as v-series (v the parameter at z/q) in the joint p,q-torsion ring
    ppol, qpol = pol3("t^2+1"), TH
    ctx = TorsionContext(ppol * qpol)
    cs = [pol3("1"), TH, pol3("t+1"), pol3("t+2")]
    detail = None
    for k in (1, 2, 3):
        detail = _lemma_difference(ctx, ppol, qpol, k, cs, 27)
        if detail:
            break
    assert verdict(8, "distribution-lemma", detail is None, detail)


def test_distribution_lemma_multi_term_goss():
    # at q = 3, G_4 = X^4 + X^2/(theta^3 - theta), so the lemma at k = 4
    # checks G(M) of Moebius values M through the numerators of a
    # Carlitz-factorial denominator; c = theta exercises the zero
    # right-hand side
    ppol, qpol = pol3("t^2+1"), TH
    ctx = TorsionContext(ppol * qpol)
    gk = goss_coeffs_in(ctx, 4)
    ring = ctx.ring
    assert gk == [ring.zero, ring.zero, ring.one, ring.zero,
                  ctx.lift_poly(TH ** 3 - TH)]
    assert _lemma_difference(ctx, ppol, qpol, 4, (pol3("1"), TH), 27) is None


def test_criterion_09_congruences():
    p2 = pol3("t^2+1")
    r1 = forms.congruence_check("SF", p2, 1, 30)
    r2 = forms.congruence_check("TwistedSF", p2, 1, 30)
    ok = r1.passed and r2.passed
    assert verdict(9, "congruences", ok,
                   r1.witness if not r1.passed else r2.witness)


def test_criterion_10_ehat_twist_identity():
    p2 = pol3("t^2+1")
    ctx1 = TorsionContext(TH)
    checks = [forms.ehat_twist_identity(
        DirichletCharacter.from_conductor(TH, 1, big=ctx1.big), 1, TH, 20)]
    big = TorsionContext(p2, ext_degree=2).big
    for k in (1, 2):
        e = 1 if k % 2 else 2
        chi = DirichletCharacter.from_conductor(p2, e, big=big)
        checks.append(forms.ehat_twist_identity(chi, k, p2, 20))
    bad = [r for r in checks if not r.passed]
    assert verdict(10, "ehat-twist-identity", not bad,
                   bad[0].witness if bad else None)


def test_criterion_11_eisenstein_rank():
    p2 = pol3("t^2+1")
    detail = None
    for ppol, N, want in ((TH, 12, 2), (p2, 36, 8)):
        for k in (1, 2, 3):
            got = forms.eisenstein_rank(ppol, k, N)
            if got != want:
                detail = "p=%s k=%d rank %d != %d" % (
                    ppol.format(), k, got, want)
    assert verdict(11, "eisenstein-rank", detail is None, detail)


def test_criterion_12_nonvanishing():
    detail = None
    # constant terms: nonzero chi-eigenvectors for every valid (chi, k)
    for ppol in (TH, pol3("t+1"), pol3("t^2+1")):
        ctx = TorsionContext(ppol, ext_degree=ppol.degree)
        size = 3 ** ppol.degree
        for k in range(1, 5):
            for e in range(1, size - 1):
                if (e + k) % 2:
                    continue
                chi = DirichletCharacter.from_conductor(ppol, e, big=ctx.big)
                try:
                    forms.eis_constant_term(chi, k, ctx)
                except RuntimeError as exc:
                    detail = "p=%s e=%d k=%d: %s" % (
                        ppol.format(), e, k, exc)
    # normalized projections of the cuspidal catalog are nonzero
    if detail is None:
        n2 = pol3("t+1")
        ctx = TorsionContext(n2)
        chi = DirichletCharacter.from_conductor(n2, 1)
        for name, F in (("f_1", forms.petrov_fs(ctx, 1, 3)),
                        ("Delta", forms.delta(ctx, 3)),
                        ("E_p", forms.eisenstein_ep(ctx, TH, 3))):
            g = twist_normalized(F.render(18), chi, ctx)
            if not g:
                detail = "projection of %s vanished" % name
    assert verdict(12, "nonvanishing", detail is None, detail)


def test_criterion_13_goss_oracle():
    detail = None
    for q in (3, 5):
        field = finite_field(q)
        N = 4 * q
        rec = goss_polys(field, N)
        gen = goss_generating(field, N)
        if rec != gen:
            detail = "constructions differ at q=%d" % q
            break
        for k in range(1, N + 1):
            coeffs = rec[k]
            if len(coeffs) != k + 1 or not coeffs[-1]:
                detail = "G_%d not monic of degree %d (q=%d)" % (k, k, q)
                break
            if coeffs[0]:
                detail = "G_%d has a constant term (q=%d)" % (k, q)
                break
            support = [j for j, c in enumerate(coeffs) if c]
            if any((j - k) % (q - 1) for j in support):
                detail = "G_%d support off the congruence class (q=%d)" % (
                    k, q)
                break
        if detail:
            break
    assert verdict(13, "goss-oracle", detail is None, detail)
