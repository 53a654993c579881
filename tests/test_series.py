"""Truncated u-expansions: substitution calculus, sub-parameter
ascent/descent, and rendering of A-expansions and twisted Eisenstein
objects."""

import pytest
from hypothesis import given, settings, strategies as st

from drinfeld.algebra import Pol, finite_field, monics_up_to_degree, parse_pol
from drinfeld.carlitz import TorsionContext
from drinfeld.characters import DirichletCharacter
from drinfeld.errors import (InsufficientDegreeBound, NotDescendable,
                             SignMismatch)
from drinfeld.series import (WITNESS_WIDTH, AExpansion, ModularMeta,
                             TwistedEisenstein, UExpansion, descend,
                             eisenstein_components, evaluate_at_shift,
                             goss_coeffs_in,
                             moebius_of_series, poly_eval_scalar,
                             poly_eval_series, rescale_arg, shift_by_torsion,
                             shift_by_value, to_subparameter, u_of_az)

F3 = finite_field(3)
TH = Pol.x(F3)
F4 = finite_field(2, 2)
P4 = Pol(F4, (2, 1, 1))  # t^2 + t + w, w the element of F_4 with code 2


def pol3(text):
    return parse_pol(F3, text)


def small_series(ctx, N=8):
    def build(ints):
        coeffs = [ctx.lift_const(v % 3) for v in ints]
        coeffs += [ctx.ring.zero] * (N - len(coeffs))
        return UExpansion(ctx, coeffs[:N], N)
    return st.lists(st.integers(0, 2), min_size=1, max_size=N).map(build)


class TestDifference:
    def test_witness_holds_both_coefficients(self):
        ctx = TorsionContext(TH)
        f = u_of_az(ctx, pol3("t+1"), 9)
        coeffs = list(f.coeffs)
        coeffs[4] = coeffs[4] + ctx.lift_poly(TH)
        g = UExpansion(ctx, coeffs, 9)
        assert f.difference(f) is None
        assert f.difference(g) == "u^4: %s != %s" % (
            f.coeff(4).format(), g.coeff(4).format())

    def test_long_coefficients_are_cut(self):
        ctx = TorsionContext(TH)
        long = UExpansion.const(ctx, ctx.lift_poly(Pol(F3, (1,) * 40)), 1)
        witness = long.difference(UExpansion.zero(ctx, 1))
        head, _, rest = witness.partition(": ")
        a, _, b = rest.partition(" != ")
        assert head == "u^0" and b == "0"
        assert len(a) == WITNESS_WIDTH and a.endswith("...")


class TestUOfAz:
    def test_identity(self):
        ctx = TorsionContext(TH)
        assert u_of_az(ctx, Pol.one(F3), 8).agrees_with(UExpansion.u(ctx, 8))

    def test_theta_geometric(self):
        # u(theta z) = u^3 * sum_j (-theta)^j u^(2j)
        ctx = TorsionContext(TH)
        N = 12
        got = u_of_az(ctx, TH, N)
        want = UExpansion.zero(ctx, N)
        for j in range(N):
            e = 3 + 2 * j
            if e >= N:
                break
            c = (-ctx.lift_poly(TH)) ** j
            want = want + UExpansion.monomial(ctx, e, N).scale(c)
        assert got.agrees_with(want)

    def test_order(self):
        ctx = TorsionContext(TH)
        for a in [TH, pol3("t^2+1"), pol3("t^3+t+1")]:
            assert u_of_az(ctx, a, 100).order() == 3 ** a.degree

    def test_multiplicative_through_rescale(self):
        ctx = TorsionContext(TH)
        for a in [TH, pol3("t+1")]:
            for b in [pol3("t+2"), pol3("t^2+1")]:
                lhs = u_of_az(ctx, a * b, 30)
                rhs = rescale_arg(u_of_az(ctx, a, 30), b)
                assert lhs.agrees_with(rhs)


class TestShifts:
    def test_zero_shift_identity(self):
        ctx = TorsionContext(TH)
        f = u_of_az(ctx, TH, 10)
        assert shift_by_torsion(f, Pol.zero(F3), ctx).agrees_with(f)
        assert shift_by_torsion(f, TH, ctx).agrees_with(f)

    def test_geometric_expansion_of_u(self):
        # u shifted by beta: u - lam u^2 + lam^2 u^3 - ...
        ctx = TorsionContext(TH)
        N = 8
        f = shift_by_torsion(UExpansion.u(ctx, N), Pol.one(F3), ctx)
        lam = ctx.exp_value(Pol.one(F3))
        acc = ctx.ring.one
        for n in range(1, N):
            assert f.coeff(n) == acc
            acc = acc * (-lam)

    def test_shifts_compose_additively(self):
        ctx = TorsionContext(pol3("t^2+1"))
        f = u_of_az(ctx, TH, 12) + UExpansion.u(ctx, 12)
        b1, b2 = pol3("t+1"), pol3("2*t+2")
        lhs = shift_by_torsion(shift_by_torsion(f, b1, ctx), b2, ctx)
        rhs = shift_by_torsion(f, b1 + b2, ctx)
        assert lhs.agrees_with(rhs)

    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_shift_is_ring_hom(self, data):
        ctx = TorsionContext(TH)
        f = data.draw(small_series(ctx))
        g = data.draw(small_series(ctx))
        beta = Pol.one(F3)
        lhs = shift_by_torsion(f * g, beta, ctx)
        rhs = shift_by_torsion(f, beta, ctx) * shift_by_torsion(g, beta, ctx)
        assert lhs.agrees_with(rhs)

    def test_moebius_of_series_is_argument_side(self):
        # moebius transforms the series value X -> X/(lam X + 1); composing
        # u with it differs from substituting into a general series
        ctx = TorsionContext(TH)
        lam = ctx.exp_value(Pol.one(F3))
        X = u_of_az(ctx, TH, 10)
        m = moebius_of_series(X, lam)
        denom_inv = (UExpansion.const(ctx, ctx.ring.one, 10)
                     + X.scale(lam)).inverse()
        assert m.agrees_with(X * denom_inv)

    def test_shift_by_value_binomial_form(self):
        ctx = TorsionContext(TH)
        lam = ctx.exp_value(Pol.one(F3))
        f = UExpansion.monomial(ctx, 2, 8)
        got = shift_by_value(f, lam)
        # u^2/(lam u + 1)^2 expanded directly
        u = UExpansion.u(ctx, 8)
        denom = (UExpansion.const(ctx, ctx.ring.one, 8)
                 + u.scale(lam)) ** 2
        assert got.agrees_with((u ** 2) * denom.inverse())


class TestSubParameter:
    def test_roundtrip(self):
        ctx = TorsionContext(TH)
        f = UExpansion.u(ctx, 9) + u_of_az(ctx, TH, 9).scale(ctx.lift_poly(TH))
        g = to_subparameter(f, TH, 27)
        assert descend(g, TH).agrees_with(f.truncate(9))

    def test_v_not_descendable(self):
        ctx = TorsionContext(TH)
        g = UExpansion.u(ctx, 9, var="v")
        with pytest.raises(NotDescendable):
            descend(g, TH)

    def test_full_beta_sum_descends_torsion_free(self):
        ctx = TorsionContext(TH)
        f = UExpansion.u(ctx, 27)
        acc = UExpansion.zero(ctx, 27, var="v")
        for beta in [Pol.zero(F3), Pol.one(F3), Pol.const(F3, 2)]:
            acc = acc + evaluate_at_shift(f, beta, TH, ctx)
        out = descend(acc, TH)
        for n, c in enumerate(out.coeffs):
            assert ctx.free_of(0, c), "lambda survived at u^%d" % n
        # the descended series is theta * u + O(u^2) ... check leading term
        assert out.coeff(1) == ctx.lift_poly(TH)


class TestAExpansionRender:
    def test_delta_leading_term(self):
        ctx = TorsionContext(TH)
        coeffs = {a.c: ctx.lift_poly(a ** 6)
                  for a in monics_up_to_degree(F3, 2)}
        D = AExpansion(ctx, "power", 2, 8, 2, coeffs, 2)
        r = D.render(9)
        assert r.order() == 2
        assert r.coeff(2) == ctx.ring.one

    def test_false_eisenstein_leading_term(self):
        ctx = TorsionContext(TH)
        coeffs = {a.c: ctx.lift_poly(a) for a in monics_up_to_degree(F3, 2)}
        E = AExpansion(ctx, "power", 1, 2, 1, coeffs, 2)
        assert E.render(9).order() == 1

    def test_brute_force_truncation(self):
        # f_1 to precision 6 equals the direct sum over deg a <= 1
        ctx = TorsionContext(TH)
        coeffs = {a.c: ctx.lift_poly(a ** 3)
                  for a in monics_up_to_degree(F3, 1)}
        f1 = AExpansion(ctx, "power", 1, 4, 1, coeffs, 1)
        got = f1.render(6)
        want = UExpansion.zero(ctx, 6)
        for a in monics_up_to_degree(F3, 1):
            want = want + u_of_az(ctx, a, 6).scale(ctx.lift_poly(a ** 3))
        assert got.agrees_with(want)

    def test_linear_in_coefficients(self):
        ctx = TorsionContext(TH)
        c1 = {a.c: ctx.lift_poly(a) for a in monics_up_to_degree(F3, 2)}
        c2 = {a.c: ctx.lift_poly(a ** 3) for a in monics_up_to_degree(F3, 2)}
        csum = {k: c1[k] + c2[k] for k in c1}
        F1 = AExpansion(ctx, "power", 1, 2, 1, c1, 2)
        F2 = AExpansion(ctx, "power", 1, 2, 1, c2, 2)
        FS = AExpansion(ctx, "power", 1, 2, 1, csum, 2)
        assert FS.render(9).agrees_with(F1.render(9) + F2.render(9))

    def test_insufficient_bound(self):
        ctx = TorsionContext(TH)
        coeffs = {a.c: ctx.ring.one for a in monics_up_to_degree(F3, 1)}
        F = AExpansion(ctx, "power", 1, 2, 1, coeffs, 1)
        with pytest.raises(InsufficientDegreeBound):
            F.render(10)

    def test_precision_honesty(self):
        ctx = TorsionContext(TH)
        coeffs = {a.c: ctx.lift_poly(a ** 3)
                  for a in monics_up_to_degree(F3, 3)}
        F = AExpansion(ctx, "power", 1, 4, 1, coeffs, 3)
        low, high = F.render(9), F.render(27)
        assert low.agrees_with(high.truncate(9))


class TestTwistedEisenstein:
    def test_constant_term_golden(self):
        # q=3, p=theta, k=1, chi=chi_zeta: constant term = lambda/theta
        ctx = TorsionContext(TH)
        chi = DirichletCharacter.from_conductor(TH, 1)
        T = TwistedEisenstein.build(ctx, 1, chi)
        lam = ctx.gens[0]
        assert T.constant_term() == lam * ctx.lift_poly(TH).invert()

    def test_sign_mismatch(self):
        ctx = TorsionContext(TH)
        with pytest.raises(SignMismatch):
            TwistedEisenstein.build(ctx, 1, DirichletCharacter.trivial(TH))

    @pytest.mark.parametrize("modulus, ext, e, k, N", [
        (TH, 1, 1, 1, 12),
        # non-prime q with a constant-field extension, where base-field
        # and extension-field codes differ
        (P4, 2, 2, 1, 6),
    ], ids=["q3-t", "q4-t^2+t+w"])
    def test_render_is_linear_in_components(self, modulus, ext, e, k, N):
        ctx = TorsionContext(modulus, ext_degree=ext)
        chi = DirichletCharacter.from_conductor(modulus, e, big=ctx.big)
        T = TwistedEisenstein.build(ctx, k, chi)
        # perturb the components so they are no longer one multiple of
        # chi^{-1}, then combine two objects that sum back to T
        lam = ctx.gens[0]
        a1 = ctx.units(modulus)[0]
        c1 = dict(T.components)
        c1[a1.c] = c1[a1.c] + lam
        c2 = {key: ctx.ring.zero for key in T.components}
        c2[a1.c] = -lam
        T1 = TwistedEisenstein(ctx, k, chi, c1)
        T2 = TwistedEisenstein(ctx, k, chi, c2)
        assert (T1.render(N) + T2.render(N)).agrees_with(T.render(N))

    @pytest.mark.parametrize("modulus, k, N, bound", [
        (pol3("t^2+1"), 4, 12, 2),
        (P4, 5, 6, 1),
    ], ids=["q3-t^2+1", "q4-t^2+t+w"])
    def test_components_equal_direct_moebius_sum(self, modulus, k, N, bound):
        # E_a = G_k(1/lambda_a) + sum over monic c and xi in F_q^* of
        # G_k(u(xi c z + a/p)), with u(xi c z) = u(cz)/xi; only monic a are
        # computed, and every unit a must match xi^(-k) E_{a/xi}, xi = lc(a)
        ctx = TorsionContext(modulus, ext_degree=2)
        field = ctx.field
        comps = eisenstein_components(ctx, k, modulus, N, bound)
        gk = goss_coeffs_in(ctx, k)
        assert len(comps) == len(ctx.units()) // (field.order - 1)
        assert all(Pol(field, key).is_monic() for key in comps)
        total = UExpansion.zero(ctx, N)
        for a in ctx.units():
            lam = ctx.exp_value(a)
            want = UExpansion.const(
                ctx, poly_eval_scalar(gk, lam.invert(), ctx.ring), N)
            for c in monics_up_to_degree(field, bound):
                U = u_of_az(ctx, c, N)
                for xi in field.units():
                    Uxi = U.scale_const(ctx.emb[field.inv(xi)])
                    want = want + poly_eval_series(
                        gk, moebius_of_series(Uxi, lam))
            xi = a.leading()
            got = comps[a.monic().c].scale_const(ctx.emb[field.pow(xi, -k)])
            assert got == want, "a = %s" % a.format()
            total = total + want.scale(ctx.lift_poly(a))
        # render folds components given at every unit onto the monic E_a;
        # with the non-character components comp(a) = a it must give
        # sum_a a * E_a
        T = TwistedEisenstein(ctx, k, DirichletCharacter.trivial(
            modulus, big=ctx.big), {a.c: ctx.lift_poly(a) for a in ctx.units()})
        assert T.render(N, bound).agrees_with(total)

    def test_render_precision_honesty(self):
        ctx = TorsionContext(pol3("t^2+1"), ext_degree=2)
        chi = DirichletCharacter.from_conductor(pol3("t^2+1"), 1, big=ctx.big)
        T = TwistedEisenstein.build(ctx, 1, chi)
        assert T.render(6).agrees_with(T.render(12).truncate(6))

    def test_goss_polynomial_rendering_weight3(self):
        # k=3 exercises G_3 = X^3; the u^3-coefficient of the c=1 term
        ctx = TorsionContext(TH)
        chi = DirichletCharacter.from_conductor(TH, 1)
        T = TwistedEisenstein.build(ctx, 3, chi)
        r = T.render(8)
        assert r.prec == 8
        gk = goss_coeffs_in(ctx, 3)
        assert len(gk) == 4
