"""Form catalog, verification reports, congruence checks, and rank counts."""

import functools
import itertools
import json
import re

import pytest

from drinfeld import forms
from drinfeld.algebra import (RF, Pol, QuotientRing, Residue, finite_field,
                              irreducible_monics, is_irreducible,
                              monics_of_degree, monics_up_to_degree,
                              parse_pol, row_echelon)
from drinfeld.carlitz import TorsionContext
from drinfeld.characters import DirichletCharacter
from drinfeld.errors import (NotReducible, NotSquareFree, SignMismatch,
                             Unsupported)
from drinfeld.operators import hecke_a, hecke_u
from drinfeld.series import (AExpansion, UExpansion, goss_coeffs_in,
                             goss_den, poly_eval_scalar, poly_eval_series,
                             shift_by_value, u_of_az)

from eigen_oracle import eigen_check
from residue_oracle import first_reduced, point_image
from series_oracle import (character_rows, defining_f_row,
                           rows_by_characters, sign_characters)

F3 = finite_field(3)
TH = Pol.x(F3)
F4 = finite_field(2, 2)
P4 = Pol(F4, (2, 1, 1))  # t^2 + t + w, w the element of F_4 with code 2


def pol3(text):
    return parse_pol(F3, text)


QUADRATICS = ("t^2+1", "t^2+t+2", "t^2+2t+2")
F9_QUADRATIC = next(p for p in irreducible_monics(finite_field(3, 2), 2)
                    if p.degree == 2)
# (level, k, N) at which the rows over T are compared with the images of
# the exact rows; q = 4, k = 3 is short of full rank over F_16
REDUCED_CASES = ([(pol3(p), k, 36) for p in QUADRATICS for k in (1, 2, 3)]
                 + [(pol3("t^3+2t+1"), 1, 90)]
                 + [(P4, k, 40) for k in (1, 2, 3)]
                 + [(parse_pol(finite_field(5), "t^2+2"), 1, 60),
                    (F9_QUADRATIC, 1, 30)])
REDUCED_IDS = (["q3-%s-k%d" % (p, k) for p in QUADRATICS for k in (1, 2, 3)]
               + ["q3-t^3+2t+1-k1", "q4-k1", "q4-k2", "q4-k3", "q5-k1",
                  "q9-k1"])
# (level, weights, N) at which the rows are compared with the character
# rows of series_oracle
ORACLE_LEVELS = [(pol3("t^2+1"), (1, 2), 12), (P4, (1, 2), 10),
                 (parse_pol(finite_field(5), "t+1"), (1, 2), 14),
                 (Pol(finite_field(3, 2), (1, 1)), (1, 2), 20)]
ORACLE_IDS = ["q3-t^2+1", "q4-t^2+t+w", "q5-t+1", "q9-t+1"]


class TestBoundForPrecision:
    def test_small_values(self):
        # smallest b with min_exp * q^(b+1) >= N
        assert forms.bound_for_precision(F3, 3) == 0
        assert forms.bound_for_precision(F3, 27) == 2
        assert forms.bound_for_precision(F3, 28) == 3
        assert forms.bound_for_precision(F3, 27, min_exp=3) == 1


class TestCatalog:
    def test_petrov_metadata_and_coeffs(self):
        ctx = TorsionContext(TH)
        F = forms.petrov_fs(ctx, 2, 2)
        assert F.weight == 2 + 2 * 2 and F.type_ == 1 and F.index == 1
        a = pol3("t+1")
        assert F.coefficient(a) == ctx.lift_poly(a ** 5)
        with pytest.raises(ValueError):
            forms.petrov_fs(ctx, 0, 2)

    def test_delta_metadata(self):
        ctx = TorsionContext(TH)
        D = forms.delta(ctx, 2)
        assert D.weight == 8 and D.type_ == 2 and D.index == 2
        f = D.render(9)
        assert f.order() == 2 and f.coeff(2) == ctx.ring.one

    def test_false_eisenstein_is_petrov_lowest(self):
        ctx = TorsionContext(TH)
        E = forms.false_eisenstein(ctx, 2)
        f1 = forms.petrov_fs(ctx, 1, 2)
        assert E.weight == 2 and E.type_ == 1
        for a in monics_up_to_degree(F3, 2):
            assert E.coefficient(a) == ctx.lift_poly(a)

    def test_ep_drops_multiples_of_p(self):
        ctx = TorsionContext(TH)
        Ep = forms.eisenstein_ep(ctx, TH, 3)
        assert not Ep.coefficient(TH)
        assert not Ep.coefficient(TH * pol3("t+1"))
        assert Ep.coefficient(pol3("t+1")) == ctx.lift_poly(pol3("t+1"))

    def test_fricke_sign_mismatch(self):
        ctx = TorsionContext(TH)
        chi = DirichletCharacter.from_conductor(TH, 1)
        with pytest.raises(SignMismatch):
            forms.fricke_eis(ctx, chi, 2, 2)  # k=2 but sign(chi)=1

    def test_fricke_neben_is_inverse_character(self):
        ctx = TorsionContext(TH)
        chi = DirichletCharacter.from_conductor(TH, 1)
        F = forms.fricke_eis(ctx, chi, 1, 2)
        assert F.weight == 1 and F.type_ == 1
        assert F.meta().neben == chi.inverse()


class TestVerificationReport:
    def test_json_shape(self):
        r = forms.VerificationReport("demo", {"a": 1}, 10, True)
        d = json.loads(r.to_json())
        assert d == {"identity": "demo", "params": {"a": 1},
                     "precision": 10, "pass": True, "witness": None}
        assert bool(r)

    def test_deterministic(self):
        r1 = forms.VerificationReport("demo", {"b": 2, "a": 1}, 5, False, "w")
        r2 = forms.VerificationReport("demo", {"a": 1, "b": 2}, 5, False, "w")
        assert r1.to_json() == r2.to_json()
        assert not r1


class TestEigensystemReports:
    def test_a_expansion_pass_and_fail(self):
        ctx = TorsionContext(TH)
        F = forms.petrov_fs(ctx, 1, 3)
        qs = [pol3("t+1"), pol3("t^2+1")]
        ok = forms.verify_eigensystem(F, qs, lambda p: ctx.lift_poly(p), 0)
        assert ok.passed and ok.witness is None
        bad = forms.verify_eigensystem(
            F, qs, lambda p: ctx.lift_poly(p * p), 0)
        assert not bad.passed and bad.witness == "q=t+1 at a = 1"
        late = forms.verify_eigensystem(
            F, qs, lambda p: ctx.lift_poly(p ** p.degree), 0)
        assert not late.passed and late.witness == "q=t^2+1 at a = 1"

    def test_reads_only_the_compared_degrees(self):
        # T_q keeps deg a <= bound - deg q.  With the true eigenvalue,
        # d = q^g - lambda(q) = 0 decides every a prime to q unread, so only
        # the a = q b and their b are read; with d != 0 the check reads c_a
        # in monic order up to the witness.  No coefficient is computed
        # twice, and none above bound - deg q
        ctx = TorsionContext(TH)
        bound, primes = 4, irreducible_monics(F3, 2)

        def reads(rule, expected, qs):
            read = []
            F = AExpansion.from_rule(ctx, "power", 1, 4, 1, lambda a: (
                read.append(a) or rule(a)), bound)
            rep = forms.verify_eigensystem(F, qs, expected, 0)
            assert len(read) == len({a.c for a in read})
            return rep, read
        rep, read = reads(lambda a: ctx.lift_poly(a ** 3), ctx.lift_poly,
                          primes)
        assert rep.passed
        assert {a.c for a in read} == {
            c.c for q in primes
            for b in monics_up_to_degree(F3, bound - 2 * q.degree)
            for c in (b, q * b)}
        # c_a = a^3 for deg a >= 2, else 0; lambda(t+1) = t+2 fails first
        # at t^2, the first a of degree 2, which t+1 does not divide
        rep, read = reads(
            lambda a: ctx.lift_poly(a ** 3) if a.degree > 1 else ctx.ring.zero,
            lambda p: ctx.lift_poly(p + Pol.one(F3)), [pol3("t+1")])
        monics = list(monics_up_to_degree(F3, bound - 1))
        assert rep.witness == "q=t+1 at a = t^2"
        assert read == monics[:monics.index(pol3("t^2")) + 1]

    @pytest.mark.parametrize("bound, qpol", [(3, TH * TH), (1, pol3("t^2+1"))],
                             ids=["non-prime", "bound-below-deg-q"])
    def test_errors_match_hecke_a(self, bound, qpol):
        # the check validates q and the bound where hecke_a does
        # (operators.hecke_a_rule), so it raises the same ValueError
        ctx = TorsionContext(TH)
        F = forms.petrov_fs(ctx, 1, bound)
        with pytest.raises(ValueError) as want:
            hecke_a(F, qpol)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            forms.verify_eigensystem(F, [qpol], ctx.lift_poly, 0)

    def test_u_expansion_dispatch(self):
        ctx = TorsionContext(TH)
        f = forms.petrov_fs(ctx, 1, 3).render(27)
        rep = forms.verify_eigensystem(
            f, [TH], lambda p: ctx.lift_poly(p), 27)
        assert rep.passed

    def test_failure_witness_shows_both_coefficients(self):
        ctx = TorsionContext(TH)
        f = forms.petrov_fs(ctx, 1, 3).render(27)
        wrong = pol3("t+1")
        rep = forms.verify_eigensystem(
            f, [TH], lambda p: ctx.lift_poly(wrong), 27)
        got = hecke_u(f, TH, ctx)
        want = f.scale(ctx.lift_poly(wrong)).truncate(got.prec)
        n = got.first_difference(want)
        assert not rep.passed
        assert rep.witness == "q=t at u^%d: %s != %s" % (
            n, got.coeff(n).format(), want.coeff(n).format())

    def test_twisted_dispatch(self):
        ctx = TorsionContext(pol3("t^2+1"), ext_degree=2)
        chi = DirichletCharacter.from_conductor(pol3("t^2+1"), 1, big=ctx.big)
        T = forms.twisted_eis(ctx, chi, 1)

        def lam(p):
            return ctx.lift_poly(p).scale_const(chi.eval(p))

        rep = forms.verify_eigensystem(T, [TH, pol3("t+1")], lam, 0)
        assert rep.passed

    def test_unknown_object(self):
        with pytest.raises(TypeError):
            forms.verify_eigensystem(object(), [TH], None, 0)


def eigen_cases(q, bound, composite=False):
    """(name, form, primes, eigenvalue) at level theta, or theta(theta+1)
    when composite, over F_q: f_1, Delta, E_theta and EHat of k = q-2 for
    the character of conductor theta with exponent 1, the last two on the
    primes away from theta."""
    field = {3: F3, 4: F4, 5: finite_field(5), 9: finite_field(3, 2)}[q]
    th = Pol.x(field)
    ctx = TorsionContext(th * (th + Pol.one(field)) if composite else th)
    chi = DirichletCharacter.from_conductor(th, 1, big=ctx.big)
    primes = irreducible_monics(field, 2)
    away = [p for p in primes if p != th]
    return ctx, [
        ("petrov_fs", forms.petrov_fs(ctx, 1, bound), primes,
         ctx.lift_poly),
        ("delta", forms.delta(ctx, bound), primes,
         lambda p: ctx.lift_poly(p ** (q - 1))),
        ("eisenstein_ep", forms.eisenstein_ep(ctx, th, bound), away,
         ctx.lift_poly),
        ("fricke_eis", forms.fricke_eis(ctx, chi, q - 2, bound), away,
         lambda p: ctx.lift_poly(p ** (q - 2)))]


def planted(F, b):
    """F with the coefficient at the monic b raised by one."""
    one = F.ctx.ring.one
    return AExpansion.from_rule(
        F.ctx, F.kind, F.index, F.weight, F.type_,
        lambda a: F.rule(a) + one if a == b else F.rule(a), F.bound, F.neben)


@pytest.mark.parametrize("q", [3, 4, 5, 9], ids=lambda q: "q%d" % q)
def test_eigen_check_equals_whole_form_oracle(q):
    # the check reads deg a <= bound - deg q and scales one coefficient at a
    # time; the oracle scales the whole form and compares over the smaller
    # bound, so passed and the witness must agree byte for byte
    bound = 3 if q < 9 else 2
    ctx, cases = eigen_cases(q, bound)
    # (theta+1)^(bound-1) is (theta+1) times a monic that T_(theta+1) reads
    b = (Pol.x(ctx.field) + Pol.one(ctx.field)) ** (bound - 1)
    for name, F, primes, lam in cases:
        last = primes[-1]
        plants = [
            ("true", F, lam),
            ("scaled", F, lambda p: lam(p) * ctx.lift_poly(p)),
            ("last prime", F,
             lambda p: lam(p) + ctx.ring.one if p == last else lam(p)),
            ("coefficient", planted(F, b), lam)]
        for plant, G, expected in plants:
            got = forms.verify_eigensystem(G, primes, expected, 0)
            want = eigen_check(G, primes, expected)
            assert (got.passed, got.witness) == want, (name, plant)
            assert got.passed == (plant == "true"), (name, plant, want)


@pytest.mark.parametrize("q", [3, 4], ids=lambda q: "q%d" % q)
def test_eigen_check_at_composite_level_equals_oracle(q):
    # at the composite level theta(theta+1), eigenvalues off by the
    # non-constant s = theta+1, at every prime or at the last only, fail
    # with the oracle's witness; the true ones pass.  Over F_3 this ring
    # is a field, so the test exercises no zero divisors
    ctx, cases = eigen_cases(q, 3, composite=True)
    s = ctx.lift_poly(Pol.x(ctx.field) + Pol.one(ctx.field))
    for name, F, primes, lam in cases:
        last = primes[-1]
        plants = [
            ("true", lam),
            ("offset", lambda p: lam(p) + s),
            ("last prime", lambda p: lam(p) + s if p == last else lam(p))]
        for plant, expected in plants:
            got = forms.verify_eigensystem(F, primes, expected, 0)
            want = eigen_check(F, primes, expected)
            assert (got.passed, got.witness) == want, (name, plant)
            assert got.passed == (plant == "true"), (name, plant, want)


def eigen_suite_character(ppol, k, big):
    """The character of the eigen suite of drinfeld verify at weight k: the
    first exponent e >= 1 with e + k even, of conductor ppol."""
    e = next(e for e in range(1, 8) if (e + k) % 2 == 0)
    return DirichletCharacter.from_conductor(ppol, e, big=big)


class TestETildeHecke:
    """ETilde = sum_a chi^{-1}(a) E_(0,a) as a Hecke eigenform on its
    u-expansion, at the eigen suite's level t^2+1 over F_3 for k = 1, 2, 3:
    hecke_u acts on the rendered series, so a wrong Eisenstein series fails
    here, where the eigen suite's check on the components cannot see it."""

    def test_eigenvalue_at_coprime_primes(self):
        # T_Q ETilde = chi(Q) Q^k ETilde at each monic prime Q of degree
        # <= 2 other than p, rendered at N = 30 in the ring of p*Q; the
        # eigenvalue Q^k without chi(Q) fails wherever chi(Q) != 1
        ppol, N = pol3("t^2+1"), 30
        primes = [Q for Q in irreducible_monics(F3, 2) if Q != ppol]
        assert len(primes) == 5
        for k in (1, 2, 3):
            missed = 0
            for Q in primes:
                ctx = TorsionContext(ppol * Q, ext_degree=2)
                chi = eigen_suite_character(ppol, k, ctx.big)
                E = forms.twisted_eis(ctx, chi, k).render(N)
                qk = ctx.lift_poly(Q ** k)
                right = forms.verify_eigensystem(
                    E, [Q], lambda _: qk.scale_const(chi.eval(Q)), N)
                assert right.passed, (k, Q.format(), right.witness)
                wrong = forms.verify_eigensystem(E, [Q], lambda _: qk, N)
                assert wrong.passed == (chi.eval(Q) == 1), (k, Q.format())
                missed += not wrong.passed
            assert missed, k

    def test_level_prime_values(self):
        # at Q = p, psi(p) = 0 leaves hecke_u the beta-sum alone.  Pinned as
        # measured values (PAPER.md holds only the abstract, which does not
        # state them): at N = 81, U_p EHat = p^k EHat and U_p ETilde = 0;
        # p^(k+1) for EHat and p^k for ETilde must fail
        ppol, N = pol3("t^2+1"), 81
        ctx = TorsionContext(ppol, ext_degree=2)
        bound = forms.bound_for_precision(F3, N)
        for k in (1, 2, 3):
            chi = eigen_suite_character(ppol, k, ctx.big)
            pk = ctx.lift_poly(ppol ** k)
            hat = forms.fricke_eis(ctx, chi, k, bound).render(N)
            tilde = forms.twisted_eis(ctx, chi, k).render(N)
            assert forms.verify_eigensystem(hat, [ppol], lambda _: pk, N)
            assert not hecke_u(tilde, ppol, ctx)
            assert not forms.verify_eigensystem(
                hat, [ppol], lambda _: pk * ctx.lift_poly(ppol), N)
            assert not forms.verify_eigensystem(tilde, [ppol],
                                                lambda _: pk, N)


class TestConstantTerm:
    def test_nonzero_and_eigen(self):
        for ppol in (TH, pol3("t+1"), pol3("t^2+1")):
            ctx = TorsionContext(ppol, ext_degree=ppol.degree)
            q = 3
            for k in range(1, 5):
                for e in range(1, q ** ppol.degree - 1):
                    if (e + k) % (q - 1):
                        continue
                    chi = DirichletCharacter.from_conductor(
                        ppol, e, big=ctx.big)
                    assert forms.eis_constant_term(chi, k, ctx)
                    break  # one character per (p, k) keeps this fast

    def test_golden_value(self):
        # p = theta, k = 1, chi = chi_zeta: the constant term is lambda/theta
        ctx = TorsionContext(TH)
        chi = DirichletCharacter.from_conductor(TH, 1)
        val = forms.eis_constant_term(chi, 1, ctx)
        lam = ctx.exp_value(Pol.one(F3))
        assert val == (lam, TH)


class TestCongruence:
    def test_precondition(self):
        with pytest.raises(ValueError):
            forms.congruence_check("SF", TH, 1, 10)  # |p|=3 <= 2+s(q-1)=4

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            forms.congruence_check("bogus", pol3("t^2+1"), 1, 10)

    def test_both_kinds_small(self):
        for kind in ("SF", "TwistedSF"):
            rep = forms.congruence_check(kind, pol3("t^2+1"), 1, 12)
            assert rep.passed, rep.witness

    def test_divisibility_reads_the_value_not_the_numerator(self):
        # a coefficient x over the series den p is the value x/p: integral
        # when p divides x's scalar coordinate, and then the quotient, not
        # x (every multiple of p vanishes at zeta), must vanish at zeta
        p2 = pol3("t^2+1")
        ctx = TorsionContext(p2, ext_degree=2)
        zeta = DirichletCharacter.from_conductor(p2, 1,
                                                 big=ctx.big).factors[0][1]
        inv_p = RF.from_pol(p2.map_to(ctx.big, ctx.emb)).inverse()
        big_pol = Pol(ctx.big, (ctx.big.mul(ctx.big.scalar(-1), zeta), 1))
        at_zeta = ctx.ring.from_pol(big_pol)  # theta - zeta
        p = ctx.lift_poly(p2)
        check = forms._scalar_divisible
        assert check(p, inv_p, zeta) == "not divisible by (theta - zeta)"
        assert check(p * at_zeta, inv_p, zeta) is None
        assert check(at_zeta, inv_p, zeta) == "not integral in theta"
        assert check(p * ctx.lam, inv_p, zeta) == (
            "not free of the torsion generators")
        assert check(ctx.ring.zero, inv_p, zeta) is None
        assert check(at_zeta, None, zeta) is None
        assert check(p, None, zeta) is None  # p itself vanishes at zeta


class TestEhatTwist:
    def test_conductor_guard(self):
        chi = DirichletCharacter.from_conductor(TH, 1)
        with pytest.raises(ValueError):
            forms.ehat_twist_identity(chi, 1, pol3("t+1"), 10)

    def test_small_instance(self):
        chi = DirichletCharacter.from_conductor(TH, 1)
        rep = forms.ehat_twist_identity(chi, 1, TH, 12)
        assert rep.passed, rep.witness


class TestRank:
    def test_matrix_rank_small(self):
        ctx = TorsionContext(TH)
        one, zero = ctx.ring.one, ctx.ring.zero
        lam = ctx.exp_value(Pol.one(F3))
        assert forms.matrix_rank([]) == 0
        for rows, want in (([[zero, zero]], 0),
                           ([[one, lam], [lam, lam * lam]], 1),
                           ([[one, zero], [lam, one]], 2),
                           ([[one, zero], [zero, one], [one, one]], 2)):
            assert forms.matrix_rank(rows) == _rank_over_k(rows) == want

    def test_rank_at_theta(self):
        # 2(|p|-1)/(q-1) = 2 for p = theta
        for k in (1, 2, 3):
            assert forms.eisenstein_rank(TH, k, 12) == 2

    @pytest.mark.parametrize("ppol, N, want", [
        (P4, 40, 10),  # 2(16-1)/3
        (parse_pol(finite_field(5), "t^2+2"), 60, 12),  # 2(25-1)/4
    ], ids=["q4-t^2+t+w", "q5-t^2+2"])
    def test_rank_beyond_q3(self, ppol, N, want):
        assert forms.eisenstein_rank(ppol, 1, N) == want

    def test_reducible_level(self):
        # the count is only defined for a prime level; the witness is the
        # factorisation
        for text, factors in (("t^2+t", "(t)(t+1)"),
                              ("t^2+2", "(t+1)(t+2)")):
            with pytest.raises(Unsupported,
                               match="not %s$" % re.escape(factors)):
                forms.eisenstein_rank(pol3(text), 1, 12)
        with pytest.raises(NotSquareFree):
            forms.eisenstein_rank(pol3("t^2"), 1, 12)

    def test_matrix_rank_matches_gauss_jordan_on_rank_rows(self):
        # Eisenstein rank rows, against Gaussian elimination over K of
        # their expansion: the rank suite's at q = 3, full rank 8 each, and
        # q = 4 at t+1, full rank 2
        ctx = _rank_context(pol3("t^2+1"))
        cases = [(forms.eisenstein_rows(ctx, k, 36), 8) for k in (1, 2, 3)]
        cases.append((forms.eisenstein_rows(
            _rank_context(Pol(F4, (1, 1))), 2, 20), 2))
        for rows, want in cases:
            assert forms.matrix_rank(rows) == _rank_over_k(rows) == want

    def test_matrix_rank_matches_gauss_jordan_when_deficient(self):
        ctx = TorsionContext(pol3("t^2+1"), ext_degree=2)
        ring = ctx.ring
        zero = ring.zero
        lam = ctx.exp_value(Pol.one(F3))
        th = ctx.lift_poly(TH)
        a = [lam, th, lam * th + ring.one, zero, lam ** 3]
        b = [th * th, zero, lam, ring.one, th + lam]
        c = [zero, lam ** 5, th, lam + ring.one, ring.one]
        combo = [x * th + y * lam for x, y in zip(a, c)]
        cases = [
            ([a, b, a, c, b], 3),  # repeated rows
            ([a, b, c, combo], 3),  # a combination of other rows
            ([[zero] + r[1:] for r in (a, b, c)], 3),  # zero first column
            ([[zero] + r[1:] for r in (a, c, combo)], 2),
            ([[zero] * 5, a, [x * th for x in a]], 1),
        ]
        for rows, want in cases:
            assert forms.matrix_rank(rows) == _rank_over_k(rows) == want

    @pytest.mark.parametrize("ppol, k, N, want", [
        (pol3(p), k, 36, 8) for p in ("t^2+1", "t^2+t+2", "t^2+2t+2")
        for k in (1, 2, 3)] + [
        (P4, 1, 40, 10), (P4, 2, 40, 10),
        (P4, 3, 40, 8),  # short of 10 at this precision: the exact fallback
        (parse_pol(finite_field(5), "t^2+2"), 1, 60, 12),
    ], ids=["q3-%s-k%d" % (p, k) for p in ("t^2+1", "t^2+t+2", "t^2+2t+2")
            for k in (1, 2, 3)] + ["q4-k1", "q4-k2", "q4-k3", "q5-k1"])
    def test_certified_rank_matches_exact(self, monkeypatch, ppol, k, N,
                                          want):
        ctx, rows = _exact_rows(ppol, k, N)
        exact = forms.matrix_rank(rows)
        fallbacks = _spy_matrix_rank(monkeypatch)
        build = lambda c: forms.eisenstein_rows(c, k, N)
        assert forms.certified_rank(ctx, build) == exact == want
        assert fallbacks == ([want] if want < len(rows) else [])

    def test_certified_rank_fallback_triggers(self, monkeypatch):
        ppol = pol3("t^2+1")
        ctx = TorsionContext(ppol, ext_degree=2)
        fallbacks = _spy_matrix_rank(monkeypatch)
        # the three points, all over F_81, and their Q = ppol*m + 1
        reds = list(ctx._reductions())
        one = Pol.one(F3)
        Qs = [Q for Q in (ppol * m + one for m in monics_of_degree(F3, 2))
              if is_irreducible(Q)]
        assert len(reds) == len(Qs) == 3
        assert [red.ring.field.order for red in reds] == [81] * 3
        for red, Q in zip(reds, Qs):
            assert point_image(ctx, red)(ctx.lift_poly(Q)) == 0
        # full rank over T: no fallback
        square = lambda c: [[c.ring.one, c.lam], [c.lam, c.ring.one]]
        assert forms.certified_rank(ctx, square) == 2
        assert fallbacks == []
        # full rank, but the 2x2 minor is the first Q, so its image at the
        # first point has rank 1; the second point certifies
        tried = []
        minor = lambda Q: lambda c: tried.append(c.ring) or [
            [c.ring.one, c.lam], [c.lam, c.lam * c.lam + c.lift_poly(Q)]]
        Q = Qs[0]  # (t^2+1)(t^2+1) + 1
        assert Q == pol3("t^4+2t^2+2")
        assert forms.certified_rank(ctx, minor(Q)) == 2
        assert tried == [red.ring for red in reds[:2]]
        assert fallbacks == []
        # an entry whose denominator vanishes at the first alpha: 1/Q has
        # no image there, and the second point certifies
        over_q = lambda c: [[c.lift_poly(Q).invert(), c.ring.one],
                            [c.ring.one, c.lam]]
        with pytest.raises(NotReducible):
            over_q(reds[0])
        assert forms.certified_rank(ctx, over_q) == 2
        assert fallbacks == []
        # the minor is the product of every point's Q, so every image has
        # rank 1: the exact rank
        del tried[:]
        every = functools.reduce(lambda x, y: x * y, Qs)
        assert forms.certified_rank(ctx, minor(every)) == 2
        assert tried == [red.ring for red in reds] + [ctx.ring]
        assert fallbacks == [2]
        # no residue field small enough: F_5, t^2+3 needs F_625
        ctx5 = TorsionContext(parse_pol(finite_field(5), "t^2+3"),
                              ext_degree=2)
        assert first_reduced(ctx5) is None
        assert forms.certified_rank(ctx5, square) == 2
        assert fallbacks == [2, 2]

    @pytest.mark.parametrize("ppol, k, N", REDUCED_CASES, ids=REDUCED_IDS)
    def test_reduced_rows_equal_exact_images(self, ppol, k, N):
        # the rows built over T equal, entry for entry, the images in T of
        # the rows built in the torsion ring
        ctx, exact = _exact_rows(ppol, k, N)
        red = first_reduced(ctx)
        assert not isinstance(red.ring, QuotientRing)
        image = point_image(ctx)
        got = [[x.code for x in row] for row in
               forms.eisenstein_rows(red, k, N)]
        want = [[image(x) for x in row] for row in exact]
        assert len(got) == len(exact) and all(len(r) == N for r in got)
        assert None not in (c for row in want for c in row)
        assert got == want

    @pytest.mark.parametrize("ptext", QUADRATICS)
    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_fast_path_builds_no_exact_rows(self, monkeypatch, ptext, k):
        # full rank over F_27, the first point: neither the exact
        # Eisenstein components nor the exact rank run
        fallbacks = _spy_matrix_rank(monkeypatch)
        rings = []
        components = forms.eisenstein_components
        monkeypatch.setattr(forms, "eisenstein_components",
                            lambda ctx, *args: rings.append(ctx.ring)
                            or components(ctx, *args))
        assert forms.eisenstein_rank(pol3(ptext), k, 36) == 8
        assert fallbacks == []
        assert len(rings) == 1
        assert not isinstance(rings[0], QuotientRing)
        assert rings[0].field.order == 27

    def test_goss_numerators_certify_where_d_vanishes(self, monkeypatch):
        # at theta over F_3 the first Q is t+1 and T = F_3; G_4 and G_5
        # carry 1/D, D = t^3+2t, which vanishes at every point of F_3.  The
        # rows are numerators over D, so they still have images there,
        # equal to the images of the exact rows, and F_3 certifies 2 at
        # k = 4 and 5 (F_9, Q = t^2+1, gives 1 of 2 at k = 4)
        ctx = TorsionContext(TH)
        reds = list(ctx._reductions())
        assert [red.ring.field.order for red in reds[:3]] == [3, 9, 27]
        image = point_image(ctx, reds[0])
        for k in (4, 5):
            assert goss_den(F3, k) == pol3("t^3+2t")
            assert not reds[0].lift_poly(goss_den(F3, k))
            assert ([[x.code for x in row]
                     for row in forms.eisenstein_rows(reds[0], k, 12)]
                    == [[image(x) for x in row]
                        for row in forms.eisenstein_rows(ctx, k, 12)])
            assert _residue_rank(reds[0], k, 12) == 2
        assert [_residue_rank(red, 4, 12) for red in reds[1:3]] == [1, 2]
        fallbacks = _spy_matrix_rank(monkeypatch)
        for k in (4, 5):
            assert forms.eisenstein_rank(TH, k, 12) == 2
        assert fallbacks == []

    def test_weights_above_q_certify(self, monkeypatch):
        # k = 4..7 > q = 3 at theta, N = 27: Goss numerators over
        # Carlitz-factorial dens (none at k = 6, G_6 = G_2^3), certified
        # with no exact rank
        fallbacks = _spy_matrix_rank(monkeypatch)
        assert [goss_den(F3, k).is_one() for k in range(4, 8)] == [
            False, False, True, False]
        for k in range(4, 8):
            assert forms.eisenstein_rank(TH, k, 27) == 2
        assert fallbacks == []

    def test_cubic_count(self, monkeypatch):
        # 2(27-1)/2 = 26 at the cubic level, certified with no exact rank:
        # over F_27 at k = 1 and 3; at k = 2, F_27 (Q = p+1) gives 25 and
        # the first F_243 point 26
        ppol = pol3("t^3+2t+1")
        fallbacks = _spy_matrix_rank(monkeypatch)
        reds = list(itertools.islice(TorsionContext(ppol)._reductions(), 2))
        assert [red.ring.field.order for red in reds] == [27, 243]
        assert [_residue_rank(red, 2, 150) for red in reds] == [25, 26]
        for k, N in ((1, 90), (2, 150), (3, 190)):
            assert forms.eisenstein_rank(ppol, k, N) == 26
        assert fallbacks == []

    @pytest.mark.parametrize("ppol, ks, N", [
        (pol3("t^2+1"), (1, 2, 3), 28),
        (P4, (1, 2), 20),
    ], ids=["q3-t^2+1", "q4-t^2+t+w"])
    def test_rows_match_all_unit_builder(self, ppol, ks, N):
        # F_a equals its defining sum, one G_k(u(cz)) per nonzero c = a,
        # and the rows combine into the character rows built from one E_a
        # per unit and one G_k(u(cz)) per monic c, each scaled by its own
        # chi^{-1} value
        ctx = TorsionContext(ppol, ext_degree=ppol.degree)
        monic = [a for a in ctx.units(ppol) if a.is_monic()]
        for k in ks:
            rows = forms.eisenstein_rows(ctx, k, N)
            # 2(|p|-1)/(q-1) rows of N entries each, E_a and F_a in turn
            size = ppol.field.order ** ppol.degree - 1
            assert len(rows) == 2 * len(monic) == 2 * size // (
                ppol.field.order - 1)
            assert all(len(row) == N for row in rows)
            assert ([[x.coords for x in row] for row in rows[1::2]]
                    == [[x.coords for x in defining_f_row(ctx, k, N, a)]
                        for a in monic]), "k = %d" % k
            got = [[x.coords for x in row]
                   for row in rows_by_characters(ctx, rows, k)]
            want = [[x.coords for x in row]
                    for row in _all_unit_rows(ppol, k, N)]
            assert got == want, "k = %d" % k

    @pytest.mark.parametrize("reduce", [False, True],
                             ids=["exact", "reduced"])
    @pytest.mark.parametrize("ppol, ks, N", ORACLE_LEVELS, ids=ORACLE_IDS)
    def test_rows_equal_scaled_sums(self, ppol, ks, N, reduce):
        # ETilde_chi = -sum_a chi^{-1}(a) E_a and EHat_chi =
        # sum_a chi^{-1}(a) F_a, entry for entry, against the character
        # rows summed as scaled E_a and scaled buckets B_r
        ctx = TorsionContext(ppol, ext_degree=ppol.degree)
        ctx = first_reduced(ctx) if reduce else ctx
        for k in ks:
            rows = forms.eisenstein_rows(ctx, k, N)
            got = rows_by_characters(ctx, rows, k)
            want = character_rows(ctx, k, N)
            assert len(rows) == len(got) == len(want) == 2 * (
                ppol.field.order ** ppol.degree - 1) // (ppol.field.order - 1)
            assert ([[x.coords for x in row] for row in got]
                    == [[x.coords for x in row] for row in want]), k

    @pytest.mark.parametrize("ppol, ks, N", ORACLE_LEVELS, ids=ORACLE_IDS)
    def test_rows_rank_as_character_rows(self, ppol, ks, N):
        # the two row sets span the same space, so they have one rank at
        # every point up to the cap
        ctx = TorsionContext(ppol, ext_degree=ppol.degree)
        reds = list(ctx._reductions())
        assert reds
        for red in reds:
            for k in ks:
                ranks = [len(row_echelon([list(r) for r in rows],
                                         Residue.invert))
                         for rows in (forms.eisenstein_rows(red, k, N),
                                      character_rows(red, k, N))]
                assert ranks[0] == ranks[1], (red.ring.field, k, ranks)


def _rank_context(ppol):
    """The exact torsion context eisenstein_rank builds for the level."""
    return TorsionContext(ppol)


def _residue_rank(red, k, N):
    """The rank of the rank rows over a reduced context."""
    rows = [list(row) for row in forms.eisenstein_rows(red, k, N)]
    return len(row_echelon(rows, Residue.invert))


@functools.lru_cache(maxsize=None)
def _exact_rows(ppol, k, N):
    """(ctx, rows): the exact context and its rank rows, built once and
    shared by the tests that compare against them."""
    ctx = _rank_context(ppol)
    return ctx, forms.eisenstein_rows(ctx, k, N)


def _spy_matrix_rank(monkeypatch):
    """The ranks forms.matrix_rank returns from now on, as a list."""
    seen = []
    exact = forms.matrix_rank
    monkeypatch.setattr(forms, "matrix_rank",
                        lambda rows: seen.append(exact(rows)) or seen[-1])
    return seen


def _rank_over_k(rows):
    """The rank of rows of elements of a torsion ring L of degree d over
    K = F(theta), by no code of forms: rank_L(M) = rank_K(M_K)/d, where
    M_K puts in each entry's place its d x d multiplication matrix over K
    (column j the RF coordinates of x * lambda^j), ranked by row_echelon
    over RF."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ring = rows[0][0].ring
    assert len(ring.dims) == 1
    d = ring.total
    basis = [ring.gen(0) ** j for j in range(d)]
    big = []
    for row in rows:
        blocks = [[(x * b).rf_coords() for b in basis] for x in row]
        big += [[block[j][i] for block in blocks for j in range(d)]
                for i in range(d)]
    rank, rest = divmod(len(row_echelon(big, RF.inverse)), d)
    assert not rest
    return rank


def _all_unit_rows(ppol, k, N):
    """The character rows built with one component E_a per unit a and one
    G_k(u(cz)) per monic c prime to the level, each scaled by its own
    chi^{-1} value: the construction the orbit and bucket sums replaced."""
    field = ppol.field
    q = field.order
    ctx = TorsionContext(ppol, ext_degree=ppol.degree)
    chis = sign_characters(ctx, k)
    bound = forms.bound_for_precision(field, N)
    step = q - 1
    P = [UExpansion.zero(ctx, N) for _ in range((N - 1) // step)]
    for c in monics_up_to_degree(field, bound):
        count = (N - 1) // (step * q ** c.degree)
        if not count:
            continue
        V = W = u_of_az(ctx, c, N) ** step
        for m in range(count):
            if m:
                W = W * V
            P[m] = P[m] + W
    gk = goss_coeffs_in(ctx, k)  # D*G_k: the rows are numerators
    G = UExpansion(ctx, gk, N)
    cofactor = ctx.torsion_cofactor(ppol)
    pk = ctx.lift_poly(ppol ** k)
    comps = {}
    for a in ctx.units(ppol):
        lam = ctx.exp_at(a, ppol)
        s = shift_by_value(G, lam).coeffs
        # D*G_k(1/lambda)*p^k from mu = p/lambda
        E = UExpansion.const(ctx, poly_eval_scalar(
            [g * ctx.lift_poly(ppol ** (k - i)) for i, g in enumerate(gk)],
            cofactor(lam), ctx.ring), N)
        for m, Pm in enumerate(P, 1):
            if s[m * step]:
                E = E - Pm.scale(s[m * step] * pk)
        comps[a.c] = E
    one = Pol.one(field)
    goss_series = {}
    for c in monics_up_to_degree(field, bound):
        if c.gcd(ppol) != one or q ** c.degree >= N:
            continue
        goss_series[c.c] = poly_eval_series(gk, u_of_az(ctx, c, N))
    rows = []
    for chi in chis:
        inv = chi.inverse()
        tilde = UExpansion.zero(ctx, N)
        for akey, E in comps.items():
            tilde = tilde + E.scale_const(inv.eval(Pol(field, akey)))
        hat = UExpansion.zero(ctx, N)
        for ckey, ser in goss_series.items():
            v = inv.eval(Pol(field, ckey))
            if v:
                hat = hat + ser.scale_const(v)
        rows.append(tilde.coeffs)
        rows.append(hat.coeffs)
    return rows
