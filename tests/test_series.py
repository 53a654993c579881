"""Truncated u-expansions: substitution calculus, sub-parameter
ascent/descent, and rendering of A-expansions and twisted Eisenstein
objects."""

import gc

import pytest
from hypothesis import given, settings, strategies as st

from drinfeld import forms, series
from drinfeld.algebra import (RF, REl, Pol, QuotientRing, Residue,
                              finite_field, monics_of_degree,
                              monics_up_to_degree, parse_pol, power)
from drinfeld.carlitz import TorsionContext
from drinfeld.characters import DirichletCharacter
from drinfeld.errors import (InsufficientDegreeBound, NotReducible,
                             SignMismatch, Unsupported)
from drinfeld.operators import twist_monomial_closed, twist_normalized
from drinfeld.series import (WITNESS_WIDTH, AExpansion, ModularMeta,
                             TwistedEisenstein, UExpansion,
                             bound_for_precision, combination,
                             eisenstein_components, goss_coeffs_in,
                             goss_den, moebius_of_series, poly_eval_series,
                             rescale_arg, shift_by_sums, shift_by_value,
                             u_of_az)

from residue_oracle import first_reduced, point_image, value_images
from series_oracle import (NotDescendable, descend, direct_u_of_az,
                           power_loop_poly_eval, repeated_product,
                           scaled_sum_components, scaled_sum_poly_eval,
                           scaled_sum_render, scaled_sum_twisted_render,
                           shift_by_torsion, to_subparameter,
                           value_difference, values, y_chain_poly_eval)
from test_quotient import ref_format

F3 = finite_field(3)
TH = Pol.x(F3)
F4 = finite_field(2, 2)
P4 = Pol(F4, (2, 1, 1))  # t^2 + t + w, w the element of F_4 with code 2


def pol3(text):
    return parse_pol(F3, text)


def small_series(ctx, N=8):
    def build(ints):
        coeffs = [ctx.big_const(ctx.emb[v % 3]) for v in ints]
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


def value_format(ring, vals, prec):
    """UExpansion.format of the values vals (RF coordinate lists), by the
    RF reference formatting of test_quotient."""
    parts = []
    for n, cx in enumerate(vals):
        if any(cx):
            mono = "" if n == 0 else ("u" if n == 1 else "u^%d" % n)
            parts.append("(%s)" % ref_format(ring, cx)
                         + ("*" + mono if mono else ""))
    return "%s + O(u^%d)" % (" + ".join(parts) if parts else "0", prec)


class TestSeriesDenominator:
    """UExpansion.den: numerators over one monic Pol, against the values
    in RF arithmetic (series_oracle.values)."""

    @staticmethod
    def numerators():
        ctx = TorsionContext(pol3("t^2+1"), ext_degree=2)
        theta, lam, one = ctx.lift_poly(TH), ctx.lam, ctx.ring.one
        return ctx, [theta, ctx.ring.zero, lam, theta * lam + one,
                     ctx.lift_poly(pol3("t^2+t"))]

    @staticmethod
    def fractions(ctx, nums, pol):
        """The values nums[n]/pol in RF coordinates, one fraction per
        coordinate."""
        inv = RF.from_pol(pol.map_to(ctx.big, ctx.emb)).inverse()
        return [[x * inv for x in c.rf_coords()] for c in nums]

    def test_integral_series_carry_none(self):
        ctx, nums = self.numerators()
        f = UExpansion(ctx, nums, 5)
        assert f.den is None and f.coeffs is f.nums
        for g in (f + f, f * f, -f, f.scale_const(2), f.truncate(3),
                  shift_by_value(f, ctx.lam), rescale_arg(f, TH),
                  u_of_az(ctx, TH, 9), f.over(Pol.one(F3))):
            assert g.den is None and g.coeffs is g.nums

    def test_over_multiplies_den_and_hides_coeffs(self):
        # a series with a den has no coeffs: a numerator is no value
        ctx, nums = self.numerators()
        f = UExpansion(ctx, nums, 5).over(TH)
        assert f.den == TH.map_to(ctx.big, ctx.emb)
        assert all(a is b for a, b in zip(f.nums, nums))  # no product
        assert values(f) == self.fractions(ctx, nums, TH)
        assert values(f)[0] == ctx.ring.one.rf_coords()  # theta/theta
        for read in (lambda: f.coeffs, lambda: f.coeff(0), lambda: f * f):
            with pytest.raises(AttributeError):
                read()
        g = f.over(pol3("t+1"))
        assert g.den == (TH * pol3("t+1")).map_to(ctx.big, ctx.emb)
        assert all(a is b for a, b in zip(g.nums, nums))
        assert values(g) == self.fractions(ctx, nums, TH * pol3("t+1"))

    def test_truncate_with_meta_and_scalings_keep_den(self):
        ctx, nums = self.numerators()
        f = UExpansion(ctx, nums, 5).over(TH)
        meta = ModularMeta(2, 1)
        lam = ctx.lam.rf_coords()
        for g, want in ((f.truncate(3), nums[:3]),
                        (f.with_meta(meta), nums),
                        (f.scale_const(ctx.emb[2]),
                         [c.scale_const(ctx.emb[2]) for c in nums]),
                        (f.scale(ctx.lam), [c * ctx.lam for c in nums]),
                        (-f, [-c for c in nums])):
            assert g.den == f.den and g.nums == tuple(want)
            assert values(g) == self.fractions(ctx, want, TH)
        assert f.with_meta(meta).meta is meta and any(lam[1:])

    @pytest.mark.parametrize("dens", [("t", "t"), ("t", "t+1"), ("t", "t^2"),
                                      ("t^2+t", "t^2+2t"), (None, "t")],
                             ids=["equal", "coprime", "dividing", "common",
                                  "integral"])
    def test_sums_over_equal_and_unequal_dens(self, dens):
        ctx, nums = self.numerators()
        one = Pol.one(F3)
        a, b = (pol3(d) if d else one for d in dens)
        f, g = (UExpansion(ctx, cs, 5) for cs in (nums, nums[::-1]))
        if dens[0]:
            f = f.over(a)
        g = g.over(b)
        lcm = a.lcm(b)
        assert (f + g).den == (f - g).den == lcm.map_to(ctx.big, ctx.emb)
        fa, gb = self.fractions(ctx, nums, a), self.fractions(ctx, nums[::-1],
                                                             b)
        minus_gb = value_difference([[x - x for x in c] for c in gb], gb)
        assert values(f + g) == value_difference(fa, minus_gb)
        assert values(f - g) == value_difference(fa, gb)
        assert values(g - f) == value_difference(gb, fa)
        if dens[0] == dens[1]:  # equal dens: numerators added, no product
            assert (f + g).nums == tuple(x + y for x, y in zip(nums,
                                                               nums[::-1]))

    def test_comparisons_agree_in_both_directions(self):
        ctx, nums = self.numerators()
        f = UExpansion(ctx, nums, 5).over(TH)
        twice = UExpansion(ctx, [c * ctx.lift_poly(TH) for c in nums],
                           5).over(TH * TH)  # the same values, another den
        assert values(twice) == values(f)
        for a, b in ((f, twice), (twice, f)):
            assert a == b and a.agrees_with(b)
            assert a.first_difference(b) is None and a.difference(b) is None
        assert f != f.truncate(4) and f.agrees_with(f.truncate(4))
        other = list(nums)
        other[3] = other[3] + ctx.lift_poly(TH)  # one more at u^3
        other = UExpansion(ctx, other, 5).over(TH)
        plus_one = UExpansion(ctx, nums, 5).over(TH) + UExpansion.monomial(
            ctx, 3, 5)
        assert values(other) == values(plus_one)
        for a in (f, twice):
            assert a != other and other != a
            assert not a.agrees_with(other) and not other.agrees_with(a)
            assert a.first_difference(other) == other.first_difference(a) == 3
            assert a.difference(other) == f.difference(other)
            assert other.difference(a) == other.difference(f)
        ring = ctx.ring
        assert f.difference(other) == "u^3: %s != %s" % (
            ref_format(ring, values(f)[3]), ref_format(ring, values(other)[3]))

    def test_format_is_the_values(self):
        ctx, nums = self.numerators()
        for pol in (TH, TH * pol3("t+1"), pol3("t^2+t")):
            f = UExpansion(ctx, nums, 5).over(pol)
            assert f.format() == value_format(ctx.ring, values(f), 5)
            assert f.format("s") != f.format()
        assert "/" in f.format()

    def test_over_on_a_reduced_context_divides_at_once(self):
        ctx, nums = self.numerators()
        red = first_reduced(ctx)
        image = point_image(ctx, red)
        T = red.ring.field
        g = UExpansion(red, [red.ring.elems[image(c)] for c in nums],
                       5).over(TH)
        assert g.den is None
        exact = UExpansion(ctx, nums, 5).over(TH)
        den = T.inv(image(ctx.ring.from_pol(exact.den)))
        assert [c.code for c in g.coeffs] == [
            T.mul(image(c), den) for c in exact.nums]
        Q = next(m for m in monics_of_degree(F3, 4) if not red.lift_poly(m))
        with pytest.raises(NotReducible):
            g.over(Q)


# one level for each q in 3, 4, 5, 9, each with a residue point
U_MEMO_LEVELS = [pol3("t^2+1"), P4, parse_pol(finite_field(5), "t^2+2"),
                 Pol(finite_field(3, 2), (1, 1))]


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

    @pytest.mark.parametrize("modulus", U_MEMO_LEVELS,
                             ids=["q3-t^2+1", "q4-t^2+t+w", "q5-t^2+2",
                                  "q9-t+1"])
    def test_memo_equals_direct(self, modulus, monkeypatch):
        # a of degree 0, 1 and 2, one of them not monic, at precisions
        # below, between and above q^deg a; the exact context first, then
        # its first reduced context, which starts with a memo of its own.  The
        # powers of u(az) are formed once per (a, N): the series asked for
        # again reads the same power elements, with no series product
        builds = []
        carlitz_coeffs = series.carlitz_coeffs
        monkeypatch.setattr(series, "carlitz_coeffs",
                            lambda a: builds.append(a) or carlitz_coeffs(a))
        exact = TorsionContext(modulus)
        field = exact.field
        q = field.order
        th = Pol.x(field)
        avals = [Pol.one(field), th, Pol(field, (1, 2)),
                 th * th + Pol.one(field)]
        precs = [2, q + 1, q * q + 3]
        products = []
        mul = UExpansion.__mul__
        monkeypatch.setattr(UExpansion, "__mul__",
                            lambda f, g: products.append(1) or mul(f, g))
        red = first_reduced(exact)
        for ctx in (exact, red):
            assert not ctx.u_az
            del builds[:]
            for a in avals:
                for N in precs:
                    first = u_of_az(ctx, a, N)
                    assert first == direct_u_of_az(ctx, a, N), (a, N)
                    want = [repeated_product(first, j, UExpansion.const(
                        ctx, ctx.ring.one, N)).coeffs for j in (1, 2, 3)]
                    # cut before the first power of order >= N, so a zero
                    # u(az) has none, not even u(az)^1
                    assert first.powers(1) == [w for w in want[:1] if any(w)]
                    pows = first.powers(3)
                    assert pows == [w for w in want if any(w)], (a, N)
                    del products[:]
                    again = u_of_az(ctx, a, N)
                    assert again == first and again is not first
                    assert all(x is y for x, y in zip(first.coeffs,
                                                      again.coeffs) if x)
                    assert all(x is y for x, y in zip(
                        sum(pows, ()), sum(again.powers(3), ())))
                    assert not products
            # one entry, with a list of powers of its own, per (a, N); a
            # build only where q^deg a < N, and none for a repeated (a, N)
            assert len(ctx.u_az) == len(avals) * len(precs)
            assert len({id(kept) for kept in ctx.u_az.values()}) == len(
                ctx.u_az)
            assert len(builds) == sum(q ** a.degree < N for a in avals
                                      for N in precs)
        assert red.u_az is not exact.u_az
        X = u_of_az(red, th, precs[-1])
        poly_eval_series(goss_coeffs_in(red, 2), moebius_of_series(X, red.lam))
        for ctx, kind in ((red, Residue), (exact, REl)):
            seen = [c for kept in ctx.u_az.values() for p in kept for c in p]
            assert seen and all(isinstance(c, kind) for c in seen)


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
        m = moebius_value(X, lam)
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

    @pytest.mark.parametrize("modulus, N", [
        (pol3("t^2+1"), 12), (Pol(F4, (0, 1)), 16),
        (parse_pol(finite_field(5), "t"), 16),
        (Pol(finite_field(3, 2), (1, 1)), 20)],
        ids=["q3-t^2+1", "q4-t", "q5-t", "q9-t+1"])
    def test_shift_by_sums_is_weighted_sum_of_shifts(self, modulus, N):
        # sums[j] = sum_b w_b lam_b^j gives sum_b w_b shift_by_value(f, lam_b)
        # exactly: weights outside the prime field at q = 4, 9, a scalar
        # lam, lam = 0, and an f scaled by that scalar
        ctx = TorsionContext(modulus)
        field = ctx.field
        th = ctx.lift_poly(Pol.x(field))
        lams = [ctx.exp_value(b) for b in ctx.units()[:2]]
        lams += [ctx.ring.zero, th + ctx.ring.one]
        weights = [ctx.emb[field.order - 1], 1, 2 % field.p or 1,
                   ctx.big.order - 1]
        f = UExpansion(ctx, [th, ctx.ring.one, ctx.ring.zero, lams[0],
                             th * lams[1], lams[3]], N)
        for g in (f, f.scale(lams[3])):
            want = UExpansion.zero(ctx, N)
            for w, lam in zip(weights, lams):
                want = want + shift_by_value(g, lam).scale_const(w)
            sums = [sum(((lam ** j).scale_const(w)
                         for w, lam in zip(weights, lams)), ctx.ring.zero)
                    for j in range(N - 1)]
            got = shift_by_sums(g, sums)
            assert got.prec == N and got.coeffs == want.coeffs


def old_moebius(X, lam):
    """The division route to the value: X / (lam*X + 1)."""
    ctx = X.ctx
    return X / (X.scale(lam)
                + UExpansion.const(ctx, ctx.ring.one, X.prec))


def moebius_value(X, lam):
    """The coefficients of the value X/(lam*X + 1), read as G at
    moebius_of_series(X, lam) for G = X."""
    ctx = X.ctx
    return poly_eval_series([ctx.ring.zero, ctx.ring.one],
                            moebius_of_series(X, lam))


def eager_moebius(X, lam):
    """The value as the eager sum sum_j lam^j * Y_j with Y_j = X*(-X)^j,
    one dot per coefficient."""
    order = X.order()
    Y, minus, ys = X, -X, [X.coeffs]
    while (len(ys) + 1) * order < X.prec:
        Y = Y * minus
        ys.append(Y.coeffs)
    ctx = X.ctx
    pows = ctx.powers(lam, len(ys))
    dot = ctx.ring.dot
    return UExpansion(ctx, [dot([(pows[j], y[n]) for j, y in enumerate(ys)
                                 if y[n]]) for n in range(X.prec)],
                      X.prec)


def moebius_inputs(ctx, prec):
    """The series u(cz) for deg c = 0, 1, 2 (orders 1, q, q^2), at q = 4, 9
    one of them divided by a non-prime code xi, and the values lam: two
    torsion values, 0 and theta+1, a scalar that is no torsion value."""
    field = ctx.field
    th = Pol.x(field)
    lams = [ctx.exp_value(b) for b in ctx.units()[:2]]
    lams += [ctx.ring.zero, ctx.lift_poly(th + Pol.one(field))]
    series = [u_of_az(ctx, c, prec) for c in
              (Pol.one(field), th, th * th + Pol.one(field))]
    if field.order > field.p:
        series.append(series[1].scale_const(ctx.emb[field.inv(field.p)]))
    return series, lams


# (modulus, precision): q^2 < N, so u(cz) with deg c = 2 is nonzero
MOEBIUS_LEVELS = [(pol3("t^2+1"), 12), (Pol(F4, (0, 1)), 20),
                  (parse_pol(finite_field(5), "t"), 28),
                  (Pol(finite_field(3, 2), (1, 1)), 84)]
MOEBIUS_IDS = ["q3-t^2+1", "q4-t", "q5-t", "q9-t+1"]


class TestMoebius:
    """moebius_of_series(X, lam) is the record (X, lam); poly_eval_series
    evaluates G at it as one dot per coefficient over X's kept powers."""

    @pytest.mark.parametrize("modulus, N", MOEBIUS_LEVELS, ids=MOEBIUS_IDS)
    def test_equals_division(self, modulus, N, monkeypatch):
        # the value (G = X) equals X/(lam X + 1) by series division, for
        # several lam on each X and at a second, shorter precision; the
        # powers of X are formed for the first lam only
        ctx = TorsionContext(modulus)
        products = []
        mul = UExpansion.__mul__
        monkeypatch.setattr(UExpansion, "__mul__",
                            lambda f, g: products.append(1) or mul(f, g))
        for prec in (N, N // 2):
            series, lams = moebius_inputs(ctx, prec)
            for X in series:
                for i, lam in enumerate(lams):
                    want = old_moebius(X, lam)
                    del products[:]
                    assert moebius_value(X, lam) == want, (prec, X.order())
                    if i:
                        assert not products

    @pytest.mark.parametrize("modulus, N", MOEBIUS_LEVELS, ids=MOEBIUS_IDS)
    def test_goss_of_value_equals_powers_of_value(self, modulus, N):
        # G_k at the record against the generic loop over powers of the
        # value, formed by division; k up to q+3 brings several terms and,
        # for k > q, the numerators of Carlitz-factorial fractions.  At
        # q = 9 the generic loop is slow, so the precision is halved (deg
        # c = 2 then gives a zero X) and the middle weights are skipped
        ctx = TorsionContext(modulus)
        q = ctx.field.order
        ks = range(1, q + 4) if q < 9 else (1, 2, 3, q + 1, q + 2, q + 3)
        prec = N if q < 9 else N // 2
        series, lams = moebius_inputs(ctx, prec)
        series.append(UExpansion.zero(ctx, prec))
        for k in ks:
            gk = goss_coeffs_in(ctx, k)
            for X in series:
                for lam in lams:
                    assert poly_eval_series(
                        gk, moebius_of_series(X, lam)) == power_loop_poly_eval(
                            gk, old_moebius(X, lam)), (k, X.order())

    @pytest.mark.parametrize("modulus, N", MOEBIUS_LEVELS, ids=MOEBIUS_IDS)
    def test_pending_value_equals_eager_sum(self, modulus, N):
        # the record holds X and lam and no coefficients; G = X at it gives
        # the eager sum of lam^j Y_j, for X of order 1 and q at a precision
        # that is no multiple of q, at lam = 0, a torsion value and theta+1
        ctx = TorsionContext(modulus)
        field = ctx.field
        th = Pol.x(field)
        lams = [ctx.ring.zero, ctx.exp_value(ctx.units()[0]),
                ctx.lift_poly(th + Pol.one(field))]
        prec = N - 1 if field.order < 9 else N // 2 - 1
        assert prec % field.order
        for X in (u_of_az(ctx, Pol.one(field), prec), u_of_az(ctx, th, prec)):
            for lam in lams:
                M = moebius_of_series(X, lam)
                assert M.X is X and M.lam is lam and len(M) == 2
                assert not hasattr(M, "coeffs")
                assert moebius_value(X, lam) == eager_moebius(X, lam), (
                    X.order(), lam)

    @pytest.mark.parametrize("modulus, N", MOEBIUS_LEVELS, ids=MOEBIUS_IDS)
    def test_one_loop_equals_both_routes(self, modulus, N):
        # the one loop of poly_eval_series against the two routes it
        # replaced (series_oracle): at a record, the fused Y-chain route and
        # the generic power loop on the value by division; at a series, the
        # generic power loop.  G = X, a constant G, G_1 and G_{q+1}; every
        # X of moebius_inputs and a zero X; every lam, theta+1 too
        ctx = TorsionContext(modulus)
        q = ctx.field.order
        prec = N if q < 9 else N // 2
        series, lams = moebius_inputs(ctx, prec)
        series.append(UExpansion.zero(ctx, prec))
        th = ctx.lift_poly(Pol.x(ctx.field))
        polys = [[ctx.ring.zero, ctx.ring.one], [th],
                 goss_coeffs_in(ctx, 1), goss_coeffs_in(ctx, q + 1)]
        for G in polys:
            for X in series:
                assert coords(poly_eval_series(G, X)) == coords(
                    power_loop_poly_eval(G, X)), (len(G), X.order())
                for lam in lams:
                    got = coords(poly_eval_series(
                        G, moebius_of_series(X, lam)))
                    assert got == coords(y_chain_poly_eval(G, X, lam))
                    assert got == coords(power_loop_poly_eval(
                        G, old_moebius(X, lam))), (len(G), X.order())

    def test_fused_route_leaves_the_value_unsummed(self, monkeypatch):
        # G_2 at a record on the lemma's ring, N = 12, X = u(theta z) of
        # order 3: the first evaluation forms X^2 and X^3 (two series
        # products); one at another lam forms none and makes one dot per
        # coefficient of the shifted G_2 (4) and of the value (12)
        ctx = TorsionContext(pol3("t^2+1") * pol3("t+1"))
        N = 12
        gk = goss_coeffs_in(ctx, 2)
        X = u_of_az(ctx, TH, N)
        lams = [ctx.exp_value(Pol.one(F3)), ctx.exp_value(TH)]
        for lam in lams:
            ctx.powers(lam, N)
        calls, products = [], []
        dot = QuotientRing.dot
        mul = UExpansion.__mul__

        def counting(ring, pairs):
            calls.append(1)
            return dot(ring, pairs)
        monkeypatch.setattr(QuotientRing, "dot", counting)
        monkeypatch.setattr(UExpansion, "__mul__",
                            lambda f, g: products.append(1) or mul(f, g))
        poly_eval_series(gk, moebius_of_series(X, lams[0]))
        assert len(products) == 2
        del calls[:], products[:]
        poly_eval_series(gk, moebius_of_series(X, lams[1]))
        assert not products and len(calls) == 4 + N

    def test_record_does_not_leak(self):
        # the record is the pair (X, lam), and no series built from X
        # reads the powers X has formed (a truncation or a new meta shares
        # X's coefficients, so its first power does)
        ctx = TorsionContext(TH)
        lam = ctx.exp_value(Pol.one(F3))
        X = u_of_az(ctx, TH, 12)
        M = moebius_of_series(X, lam)
        assert tuple(M) == (X, lam)
        poly_eval_series(goss_coeffs_in(ctx, 2), M)
        formed = sum(X.powers(12)[1:], ())
        derived = [X.scale(lam), X + X, -X, X - X, X.truncate(6),
                   X.with_meta(ModularMeta(2, 0)), X.scale_const(2), X * X,
                   X ** 2]
        for d in derived:
            assert not any(x is y for x, y in zip(
                sum(d.powers(3)[1:], ()), formed) if x)

    def test_order_zero_raises_and_zero_gives_zero(self):
        ctx = TorsionContext(TH)
        X = UExpansion.const(ctx, ctx.ring.one, 8) + UExpansion.u(ctx, 8)
        with pytest.raises(Unsupported, match="order 0"):
            moebius_of_series(X, ctx.lam)
        zero = UExpansion.zero(ctx, 8)
        assert zero.powers(1) == [] and X.powers(3) == [
            X.coeffs, (X * X).coeffs, (X * X * X).coeffs]
        assert moebius_value(zero, ctx.lam) == zero
        assert poly_eval_series(goss_coeffs_in(ctx, 2),
                                moebius_of_series(zero, ctx.lam)) == zero

    def test_no_cyclic_garbage(self):
        # the lemma's loop of criterion 08; the memos on the series and the
        # context must die with them, with no cycle
        ctx = TorsionContext(pol3("t^2+1") * pol3("t+1"))
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            lemma_loop(ctx, pol3("t^2+1"), pol3("t+1"))
            del ctx
            gc.collect()
            garbage = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert not garbage

    def test_chain_built_once_per_series(self, monkeypatch):
        # in the lemma's loop u(c*q*z) is asked for again at every unit a,
        # but its powers are formed once per c: the only series products
        # are the powers' own, one per power X^s with s >= 2
        ppol, qpol = pol3("t^2+1"), pol3("t+1")
        ctx = TorsionContext(ppol * qpol)
        products = []
        mul = UExpansion.__mul__
        monkeypatch.setattr(UExpansion, "__mul__",
                            lambda f, g: products.append(1) or mul(f, g))
        chains = lemma_loop(ctx, ppol, qpol)
        assert len(ctx.units(ppol)) == 8
        for seen in chains.values():
            first = sum(seen[0], ())
            assert all(len(s) == len(seen[0]) and all(
                x is y for x, y in zip(sum(s, ()), first)) for s in seen)
        assert len(products) == sum(len(seen[0]) - 1
                                    for seen in chains.values())

    @pytest.mark.parametrize("reduce", [False, True],
                             ids=["exact", "reduced"])
    def test_context_dies_without_garbage(self, reduce):
        # a context that has used the normalized twists, u_of_az,
        # moebius_of_series and powers is freed by reference counting alone,
        # its memos with it; twist_sums holds ring elements only, and
        # a reduced context starts with it empty and runs the twists too
        def run_twists(ctx):
            f = UExpansion.u(ctx, 12, meta=ModularMeta(0, 0))
            twist_normalized(f, chi, ctx)
            twist_monomial_closed(2, chi, ctx, 12)
            assert [type(s) for s in ctx.twist_sums[chi]] == [
                type(ctx.ring.one)] * 11

        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            ctx = TorsionContext(pol3("t^2+1"), ext_degree=2)
            chi = DirichletCharacter.from_conductor(ctx.modulus, 1,
                                                    big=ctx.big)
            run_twists(ctx)
            if reduce:
                ctx = first_reduced(ctx)
                assert ctx.twist_sums == {}
                run_twists(ctx)
            X = u_of_az(ctx, TH, 12)
            poly_eval_series(goss_coeffs_in(ctx, 2),
                             moebius_of_series(X, ctx.lam))
            ctx.powers(ctx.exp_value(TH), 9)
            assert ctx.u_az and len(X.powers(12)) == 3 and ctx._powers
            del ctx, X
            gc.collect()
            garbage = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert not garbage


def lemma_loop(ctx, ppol, qpol, N=12):
    """The loop of the distribution lemma (criterion 08) at k = 2, for
    c = 1 and theta: G_2 of u(cz) shifted by a few torsion values, and of
    u(c*q*z) built again at every unit a mod p.  Returns {(c, side): the
    powers of X that the Moebius values read}."""
    gk = goss_coeffs_in(ctx, 2)
    mod = ctx.modulus
    chains = {}
    for c in (Pol.one(ctx.field), Pol.x(ctx.field)):
        Uc = u_of_az(ctx, c, N)
        for beta in ctx.units()[:4]:
            poly_eval_series(gk, moebius_of_series(Uc, ctx.exp_value(beta)))
            chains.setdefault((c.c, "c"), []).append(Uc.powers(N))
        for a in ctx.units(ppol):
            Ucq = u_of_az(ctx, c * qpol, N)
            poly_eval_series(gk, moebius_of_series(
                Ucq, ctx.exp_value(a * qpol * qpol % mod)))
            chains.setdefault((c.c, "cq"), []).append(Ucq.powers(N))
    return chains


def evaluate_at_shift(f, beta, qpol, ctx):
    """f((z+beta)/q) as a series in v = u(z/q), one residue at a time: the
    route hecke_u's power-sum shift replaced.  Writing w = z/q, the argument
    is w + beta/q, so this is the torsion shift of f by exp_C(pi*beta/q)
    read in the sub-parameter."""
    return shift_by_value(f, ctx.exp_at(beta % qpol, qpol))


class TestSubParameter:
    def test_roundtrip(self):
        ctx = TorsionContext(TH)
        f = UExpansion.u(ctx, 9) + u_of_az(ctx, TH, 9).scale(ctx.lift_poly(TH))
        g = to_subparameter(f, TH, 27)
        assert descend(g, TH).agrees_with(f.truncate(9))

    @pytest.mark.parametrize("p, qtext", [
        (5, "2*t"), (5, "3*t+1"), (7, "3*t+2"), (3, "2*t"), (5, "t+1")])
    def test_roundtrip_non_monic(self, p, qtext):
        # U = u(qz) leads with 1/lc(q), so c_i is scaled by lc(q)^i
        field = finite_field(p)
        t = Pol.x(field)
        ctx = TorsionContext(t)
        th = ctx.lift_poly(t)
        one = ctx.ring.one
        f = UExpansion(ctx, [ctx.ring.zero, th, one, th + one], 4)
        qpol = parse_pol(field, qtext)
        g = to_subparameter(f, qpol, 4 * p)
        assert descend(g, qpol).agrees_with(f)

    def test_v_not_descendable(self):
        ctx = TorsionContext(TH)
        g = UExpansion.u(ctx, 9)
        with pytest.raises(NotDescendable):
            descend(g, TH)

    def test_full_beta_sum_descends_torsion_free(self):
        ctx = TorsionContext(TH)
        f = UExpansion.u(ctx, 27)
        acc = UExpansion.zero(ctx, 27)
        for beta in [Pol.zero(F3), Pol.one(F3), Pol.const(F3, 2)]:
            acc = acc + evaluate_at_shift(f, beta, TH, ctx)
        out = descend(acc, TH)
        for n, c in enumerate(out.coeffs):
            assert c.exponent_free(0), "lambda survived at u^%d" % n
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
        # index 0 would make every u(az)^0 = 1 and no bound reach N
        with pytest.raises(ValueError, match="index"):
            AExpansion(ctx, "power", 0, 2, 1, coeffs, 1)

    def test_precision_honesty(self):
        ctx = TorsionContext(TH)
        coeffs = {a.c: ctx.lift_poly(a ** 3)
                  for a in monics_up_to_degree(F3, 3)}
        F = AExpansion(ctx, "power", 1, 4, 1, coeffs, 3)
        low, high = F.render(9), F.render(27)
        assert low.agrees_with(high.truncate(9))


# one level for each q in 3, 4, 5, 9, with a residue point: (modulus,
# constant-field degree, character exponent e, weight k with e + k = 0
# mod q-1, precision)
FUSED_LEVELS = [(pol3("t^2+1"), 2, 1, 1, 12), (P4, 2, 2, 1, 10),
                (Pol(finite_field(5), (1, 1)), 1, 2, 2, 14),
                (Pol(finite_field(3, 2), (1, 1)), 1, 6, 2, 20)]
FUSED_IDS = ["q3-t^2+1", "q4-t^2+t+w", "q5-t+1", "q9-t+1"]


def fused_context(modulus, ext, reduce):
    ctx = TorsionContext(modulus, ext_degree=ext)
    return first_reduced(ctx) if reduce else ctx


def coords(series):
    """The numerators' coords and the den: equal for equal series in one
    representation."""
    return [c.coords for c in series.nums], series.den


class TestCombination:
    """Each linear combination of u-series is one dot per coefficient; it
    equals, coefficient for coefficient, the sum of S.scale(c) it replaces
    (series_oracle), on exact and reduced contexts."""

    @pytest.mark.parametrize("reduce", [False, True],
                             ids=["exact", "reduced"])
    @pytest.mark.parametrize("modulus, ext, e, k, N", FUSED_LEVELS,
                             ids=FUSED_IDS)
    def test_renders_equal_scaled_sums(self, modulus, ext, e, k, N, reduce):
        ctx = fused_context(modulus, ext, reduce)
        q = ctx.field.order
        chi = DirichletCharacter.from_conductor(modulus, e, big=ctx.big)
        bound = bound_for_precision(ctx.field, N)
        # power type at index 1 and q-1, Goss type at k, and (exact only:
        # Carlitz factorials may vanish at a residue point) at q+1, whose
        # Goss polynomial has more than one term
        renders = [forms.petrov_fs(ctx, 1, bound), forms.delta(ctx, bound),
                   forms.fricke_eis(ctx, chi, k, bound)]
        if not reduce:
            renders.append(AExpansion.from_rule(
                ctx, "goss", q + 1, q + 1, q + 1, ctx.lift_poly, bound))
        for F in renders:
            got = F.render(N)
            assert got.prec == N and got.meta.weight == F.weight
            assert coords(got) == coords(scaled_sum_render(F, N)), F.kind
        # the Goss-polynomial and rescaling path of poly_eval_series, on a
        # series with a constant term too
        th = Pol.x(ctx.field)
        U = u_of_az(ctx, th + Pol.one(ctx.field), N)
        f = [ctx.lift_poly(th)] + list(renders[0].render(N).coeffs[1:])
        for coeffs in (goss_coeffs_in(ctx, k), f):
            assert coords(poly_eval_series(coeffs, U)) == coords(
                scaled_sum_poly_eval(coeffs, U))

    @pytest.mark.parametrize("reduce", [False, True],
                             ids=["exact", "reduced"])
    @pytest.mark.parametrize("modulus, ext, e, k, N", FUSED_LEVELS,
                             ids=FUSED_IDS)
    def test_components_equal_scaled_sums(self, modulus, ext, e, k, N,
                                          reduce):
        ctx = fused_context(modulus, ext, reduce)
        q = ctx.field.order
        for e, k in ((e, k), (0, q - 1)):
            chi = DirichletCharacter.from_conductor(modulus, e, big=ctx.big)
            (den, got), (want_den, want) = (
                f(ctx, k, modulus, N)
                for f in (eisenstein_components, scaled_sum_components))
            assert den == want_den == goss_den(ctx.field, k) * modulus ** k
            assert {a: coords(E) for a, E in got.items()} == {
                a: coords(E) for a, E in want.items()}
            T = TwistedEisenstein.build(ctx, k, chi)
            assert coords(T.render(N)) == coords(
                scaled_sum_twisted_render(T, N))

    def test_combination_of_nothing_is_zero(self):
        ctx = TorsionContext(TH)
        assert combination(ctx, [], 4) == UExpansion.zero(ctx, 4)
        S = u_of_az(ctx, Pol.one(F3), 4)
        assert combination(ctx, [(ctx.ring.zero, S.coeffs)], 4) == (
            UExpansion.zero(ctx, 4))

    @pytest.mark.parametrize("reduce", [False, True],
                             ids=["exact", "reduced"])
    def test_power_equals_repeated_product(self, reduce, monkeypatch):
        # on Pol, ring elements and series, power(x, e, one) for e = 0..6
        # equals e products from one; x^1 is x itself, so it makes no dot
        ctx = TorsionContext(pol3("t^2+1"), ext_degree=2)
        ctx = first_reduced(ctx) if reduce else ctx
        dots = []
        dot = type(ctx.ring).dot
        monkeypatch.setattr(type(ctx.ring), "dot", lambda ring, pairs: (
            dots.append(1) or dot(ring, pairs)))
        lam = ctx.exp_value(TH + Pol.one(F3))
        values = [(pol3("t^2+2t+2"), Pol.one(F3), lambda x: x.c),
                  (lam, ctx.ring.one, lambda x: x.coords),
                  (u_of_az(ctx, TH, 12) + UExpansion.u(ctx, 12),
                   UExpansion.const(ctx, ctx.ring.one, 12), coords)]
        # a Pol product and a residue product (a table lookup) make no dot
        for (x, one, key), dotted in zip(values, (False, not reduce, True)):
            for e in range(7):
                want = key(repeated_product(x, e, one))
                del dots[:]
                assert key(power(x, e, one)) == want, e
                assert bool(dots) == (dotted and e > 1), e
            assert power(x, 1, one) is x and power(x, 0, one) is one
        if not reduce:
            assert lam ** 1 is lam and values[2][0] ** 1 is values[2][0]

    def test_combinations_keep_memo_column_caches(self):
        # a combination reads each coefficient of u(az) and of its kept
        # powers in one dot, so it leaves the memo's column caches as they
        # were: a render again changes none, and an element with none gains
        # none from a power render at index 1 or q - 1 or a Goss render at
        # k = 1, which read the memo in combinations only once the powers
        # are kept (u(az)^2 in the components is a square, whose product
        # reads the memo and caches)
        ctx = TorsionContext(pol3("t^2+1"), ext_degree=2)
        chi = DirichletCharacter.from_conductor(ctx.modulus, 1, big=ctx.big)
        N = 30
        bound = bound_for_precision(F3, N)
        renders = [forms.petrov_fs(ctx, 1, bound),
                   forms.fricke_eis(ctx, chi, 1, bound),
                   forms.delta(ctx, bound), forms.twisted_eis(ctx, chi, 1)]
        for F in renders:
            F.render(N)
        memo = [x for kept in ctx.u_az.values() for p in kept for x in p
                if x]
        assert len(ctx.u_az) == len(monics_up_to_degree(F3, bound))
        assert max(len(kept) for kept in ctx.u_az.values()) == 2
        before = [x._cols for x in memo]
        for F in renders:
            F.render(N)
        assert all(x._cols is cols for x, cols in zip(memo, before))
        for x in memo:
            x._cols = None
        for F in renders[:3]:
            F.render(N)
        assert all(x._cols is None for x in memo)


class TestLazyRule:
    """A rule's coefficient is computed when coefficient(a) first reads it."""

    @staticmethod
    def counting(field, kind="power", index=1, bound=2):
        ctx = TorsionContext(Pol.x(field))
        calls = []

        def rule(a):
            calls.append(a.c)
            # zero on the multiples of theta, so a read may find a zero
            if not a.c[0]:
                return ctx.ring.zero
            return ctx.lift_poly(a ** (index + a.degree))
        F = AExpansion.from_rule(ctx, kind, index, index + 1, index, rule,
                                 bound)
        return ctx, F, rule, calls

    @pytest.mark.parametrize("field", [F3, F4], ids=["q3", "q4"])
    def test_rule_called_once_per_monic_read(self, field):
        ctx, F, rule, calls = self.counting(field)
        read = monics_up_to_degree(field, 2)[::3]
        want = [rule(a) for a in read]
        del calls[:]
        assert [F.coefficient(a) for a in read + read] == want + want
        assert calls == [a.c for a in read]

    @pytest.mark.parametrize("field", [F3, F4], ids=["q3", "q4"])
    def test_beyond_bound_is_zero_without_the_rule(self, field):
        ctx, F, rule, calls = self.counting(field)
        for a in monics_of_degree(field, F.bound + 1):
            assert not F.coefficient(a)
        assert calls == []

    @pytest.mark.parametrize("kind, index", [("power", 1), ("power", 2),
                                             ("goss", 2)])
    @pytest.mark.parametrize("field", [F3, F4], ids=["q3", "q4"])
    def test_render_equals_eager_map(self, field, kind, index):
        N = field.order ** 2 + 1
        ctx, F, rule, calls = self.counting(field, kind, index)
        eager = AExpansion(ctx, kind, index, index + 1, index,
                           {a.c: rule(a)
                            for a in monics_up_to_degree(field, 2)}, 2)
        del calls[:]
        got, want = F.render(N), eager.render(N)
        assert got and got.prec == want.prec and got.coeffs == want.coeffs
        # each monic that reaches u^N is computed once, the rest never
        reach = index if kind == "power" else 1
        assert calls == [a.c for a in monics_up_to_degree(field, 2)
                         if reach * field.order ** a.degree < N]


class TestTwistedEisenstein:
    def test_constant_term_golden(self):
        # q=3, p=theta, k=1, chi=chi_zeta: constant term = lambda/theta
        ctx = TorsionContext(TH)
        chi = DirichletCharacter.from_conductor(TH, 1)
        T = TwistedEisenstein.build(ctx, 1, chi)
        lam = ctx.gens[0]
        assert T.constant_term() == (lam, TH)

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
        # Both sides as numerators over D*p^k (D = goss_den): the constant
        # D*G_k(1/lambda_a)*p^k from mu = p/lambda_a, each term a product
        # of powers, the sum times p^k
        ctx = TorsionContext(modulus, ext_degree=2)
        field = ctx.field
        den, comps = eisenstein_components(ctx, k, modulus, N)
        gk = goss_coeffs_in(ctx, k)
        assert den == goss_den(field, k) * modulus ** k
        assert len(comps) == len(ctx.units()) // (field.order - 1)
        assert all(Pol(field, key).is_monic() for key in comps)
        cofactor = ctx.torsion_cofactor(modulus)
        pk = ctx.lift_poly(modulus ** k)
        total = UExpansion.zero(ctx, N)
        for a in ctx.units():
            lam = ctx.exp_value(a)
            mu = cofactor(lam)
            want = UExpansion.const(ctx, sum(
                (g * mu ** i * ctx.lift_poly(modulus ** (k - i))
                 for i, g in enumerate(gk) if g), ctx.ring.zero), N)
            for c in monics_up_to_degree(field, bound):
                U = u_of_az(ctx, c, N)
                for xi in field.units():
                    Uxi = U.scale_const(ctx.emb[field.inv(xi)])
                    want = want + poly_eval_series(
                        gk, moebius_of_series(Uxi, lam)).scale(pk)
            xi = a.leading()
            got = comps[a.monic().c].scale_const(ctx.emb[field.pow(xi, -k)])
            assert got == want, "a = %s" % a.format()
            total = total + want.scale(ctx.lift_poly(a))
        # render folds components given at every unit onto the monic E_a;
        # with the non-character components comp(a) = a it must give
        # sum_a a * E_a
        T = TwistedEisenstein(ctx, k, DirichletCharacter.trivial(
            modulus, big=ctx.big), {a.c: ctx.lift_poly(a) for a in ctx.units()})
        assert T.render(N).agrees_with(total.over(den))

    @pytest.mark.parametrize("modulus, N", [
        (TH, 12), (pol3("t^2+1"), 12), (Pol(F4, (1, 1)), 10),
        (parse_pol(finite_field(5), "t"), 14),
        (Pol(finite_field(3, 2), (1, 1)), 20)],
        ids=["q3-t", "q3-t^2+1", "q4-t+1", "q5-t", "q9-t+1"])
    def test_component_values_at_every_point(self, modulus, N):
        # at every residue point up to the cap, the image of each E_a's
        # numerators over the image of its den is E_a as the reduced
        # context computes it, its numerators divided there; k = 4 and 5
        # bring Goss numerators over D at q = 3, and where the den
        # vanishes at alpha the reduced division raises NotReducible
        ctx = TorsionContext(modulus)
        reds = list(ctx._reductions())
        assert reds
        for k in (1, 4, 5):
            den, exact = eisenstein_components(ctx, k, modulus, N)
            assert den == goss_den(ctx.field, k) * modulus ** k
            for red in reds:
                image, T = point_image(ctx, red), red.ring.field
                red_den, reduced = eisenstein_components(red, k, modulus, N)
                assert red_den == den and reduced.keys() == exact.keys()
                vanishes = not red.lift_poly(den)
                for key, E in exact.items():
                    got = UExpansion(red, reduced[key].nums, N)
                    if vanishes:  # D at the F_3 point of theta
                        with pytest.raises(NotReducible):
                            got.over(den)
                        continue
                    assert [c.code for c in got.over(den).coeffs] == (
                        value_images(image, T, E.over(den))), (k, T)

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
