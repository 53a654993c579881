"""Form catalog, verification reports, congruence checks, and rank counts."""

import json
import re

import pytest

from drinfeld import forms
from drinfeld.algebra import Pol, finite_field, monics_up_to_degree, parse_pol
from drinfeld.carlitz import TorsionContext
from drinfeld.characters import DirichletCharacter
from drinfeld.errors import NotSquareFree, SignMismatch, Unsupported
from drinfeld.operators import hecke_u
from drinfeld.series import (UExpansion, goss_coeffs_in, poly_eval_scalar,
                             poly_eval_series, shift_by_value, u_of_az)

F3 = finite_field(3)
TH = Pol.x(F3)
F4 = finite_field(2, 2)
P4 = Pol(F4, (2, 1, 1))  # t^2 + t + w, w the element of F_4 with code 2


def pol3(text):
    return parse_pol(F3, text)


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
        assert not bad.passed and bad.witness.startswith("q=t+1")

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
        assert val == lam * ctx.lift_poly(TH).invert()


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
        assert forms.matrix_rank([[zero, zero]]) == 0
        assert forms.matrix_rank([[one, lam], [lam, lam * lam]]) == 1
        assert forms.matrix_rank([[one, zero], [lam, one]]) == 2
        assert forms.matrix_rank(
            [[one, zero], [zero, one], [one, one]]) == 2

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

    @pytest.mark.parametrize("ppol, ks, N", [
        (pol3("t^2+1"), (1, 2, 3), 28),
        (P4, (1, 2), 20),
    ], ids=["q3-t^2+1", "q4-t^2+t+w"])
    def test_rows_match_all_unit_builder(self, monkeypatch, ppol, ks, N):
        # the rows from monic components and residue buckets equal, entry
        # for entry, the rows built from one E_a per unit and one
        # G_k(u(cz)) per monic c
        seen = []
        monkeypatch.setattr(forms, "matrix_rank",
                            lambda rows: seen.append(rows) or 0)
        for k in ks:
            forms.eisenstein_rank(ppol, k, N)
            got = [[x.coords for x in row] for row in seen.pop()]
            want = [[x.coords for x in row]
                    for row in _all_unit_rows(ppol, k, N)]
            assert got == want, "k = %d" % k


def _all_unit_rows(ppol, k, N):
    """The rank rows built with one component E_a per unit a and one
    G_k(u(cz)) per monic c prime to the level, each scaled by its own
    chi^{-1} value: the construction the orbit and bucket sums replace."""
    field = ppol.field
    q = field.order
    size = q ** ppol.degree
    ctx = TorsionContext(ppol, ext_degree=ppol.degree)
    chis = [DirichletCharacter.from_conductor(ppol, e, big=ctx.big)
            for e in range(size - 1) if (e + k) % (q - 1) == 0]
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
    gk = goss_coeffs_in(ctx, k)
    G = UExpansion(ctx, gk, N)
    comps = {}
    for a in ctx.units(ppol):
        lam = ctx.exp_at(a, ppol)
        s = shift_by_value(G, lam).coeffs
        E = UExpansion.const(
            ctx, poly_eval_scalar(gk, lam.invert(), ctx.ring), N)
        for m, Pm in enumerate(P, 1):
            if s[m * step]:
                E = E - Pm.scale(s[m * step])
        comps[a.c] = E
    one = Pol.one(field)
    goss_series = {}
    for c in monics_up_to_degree(field, bound):
        if c.gcd(ppol) != one or q ** c.degree >= N:
            continue
        goss_series[c.c] = poly_eval_series(gk, u_of_az(ctx, c, N))
    rows = []
    for chi in chis:
        tilde = UExpansion.zero(ctx, N)
        for akey, E in comps.items():
            tilde = tilde + E.scale_const(chi.eval_inv(Pol(field, akey)))
        hat = UExpansion.zero(ctx, N)
        for ckey, ser in goss_series.items():
            v = chi.eval_inv(Pol(field, ckey))
            if v:
                hat = hat + ser.scale_const(v)
        rows.append(tilde.coeffs)
        rows.append(hat.coeffs)
    return rows


class TestLocalL:
    def test_factor(self):
        ctx = TorsionContext(TH)
        lam = ctx.lift_poly(pol3("t+1"))
        assert forms.local_l_factor(ctx.ring.zero) == (ctx.ring.one,)
        assert forms.local_l_factor(lam) == (ctx.ring.one, -lam)
        assert forms.local_l_factor(0) == (1,)

    def test_table_skips_level(self):
        ctx = TorsionContext(TH)
        tab = forms.local_l_table(ctx, lambda p: ctx.lift_poly(p), 2)
        primes = [p for p, _ in tab]
        assert TH not in primes
        assert pol3("t+1") in primes and pol3("t^2+1") in primes
        for p, fac in tab:
            assert fac == (ctx.ring.one, -ctx.lift_poly(p))
