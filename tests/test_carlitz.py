"""Carlitz module action, torsion contexts, and Goss polynomials."""

import pytest
from hypothesis import given, settings, strategies as st

import random

from drinfeld.algebra import (RF, Pol, finite_field, is_irreducible,
                              lucas_binomial, monics_of_degree, parse_pol,
                              polys_below_degree)
from drinfeld.carlitz import (RESIDUE_ORDER_MAX, TorsionContext,
                              carlitz_coeffs, carlitz_factorials,
                              goss_polys)
from drinfeld.errors import NotReducible
from drinfeld.series import UExpansion, goss_coeffs_in, shift_by_value

from goss_oracle import goss_generating
from residue_oracle import evaluator, point_image

F3 = finite_field(3)
F4 = finite_field(2, 2)
F5 = finite_field(5)
F9 = finite_field(3, 2)
TH = Pol.x(F3)

# (field, modulus coefficients): one prime level for each q in 3, 4, 5, 9;
# the F_4 code 2 is a root omega of x^2 + x + 1
MEMO_LEVELS = [(F3, (1, 0, 1)), (F4, (2, 1, 1)), (F5, (2, 0, 1)),
               (F9, (0, 1))]
MEMO_IDS = ["q3-t2+1", "q4-t2+t+w", "q5-t2+2", "q9-t"]

# (field, modulus coefficients, extension degree): prime levels of degree
# 2 and 3, q = 4 and 5, and a composite level
TORSION_LEVELS = [(F3, (1, 0, 1), 2), (F3, (1, 2, 0, 1), 3),
                  (F4, (2, 1, 1), 2), (F5, (2, 0, 1), 2), (F3, (0, 1, 1), 1)]
TORSION_IDS = ["q3-t2+1-d2", "q3-t3+2t+1-d3", "q4-t2+t+w-d2", "q5-t2+2-d2",
               "q3-t2+t-d1"]


def pol3(text):
    return parse_pol(F3, text)


def small_pols(max_deg=2):
    return st.lists(st.integers(0, 2), min_size=1, max_size=max_deg + 1).map(
        lambda xs: Pol.from_int_coeffs(F3, xs))


def carlitz_action(a, x):
    """C_a(x) = sum [a]_i x^(q^i) for x a polynomial or a quotient-ring
    element, term by term from carlitz_coeffs: the oracle for the torsion
    values of TorsionContext."""
    q = a.field.order
    lift = None
    if not isinstance(x, Pol):
        ring = x.ring
        emb = ring.field.embedding(a.field)
        lift = lambda c: ring.from_pol(c.map_to(ring.field, emb))
    result = None
    for i, c in enumerate(carlitz_coeffs(a)):
        if not c:
            continue
        term = (x ** (q ** i)) * (c if lift is None else lift(c))
        result = term if result is None else result + term
    return result if result is not None else x - x


class TestCarlitzCoeffs:
    def test_theta(self):
        c = carlitz_coeffs(TH)
        assert c == [TH, Pol.one(F3)]

    def test_theta_squared(self):
        # [theta^2]_0 = theta^2, [theta^2]_1 = theta^3 + theta, [theta^2]_2 = 1
        c = carlitz_coeffs(TH * TH)
        assert c[0] == TH * TH
        assert c[1] == pol3("t^3+t")
        assert c[2] == Pol.one(F3)

    @given(small_pols(), small_pols())
    @settings(max_examples=30)
    def test_action_additive(self, a, b):
        x = pol3("t+1")
        assert (carlitz_action(a, x) + carlitz_action(b, x)
                == carlitz_action(a + b, x))

    @given(small_pols(1), small_pols(1))
    @settings(max_examples=20)
    def test_action_composes(self, a, b):
        x = pol3("t^2")
        assert carlitz_action(a, carlitz_action(b, x)) == carlitz_action(a * b, x)

    def test_factorials(self):
        D = carlitz_factorials(F3, 3)
        assert D[0] == Pol.one(F3)
        assert D[1] == pol3("t^3+2*t")
        # D_i = [i] D_{i-1}^q with [i] = theta^(q^i) - theta
        br2 = pol3("t^9+2*t")
        assert D[2] == br2 * D[1] ** 3


class TestTorsionContext:
    def test_generator_satisfies_torsion_polynomial(self):
        ctx = TorsionContext(TH)
        lam = ctx.gens[0]
        # Phi_theta(x) = x^(q-1) + theta
        assert lam * lam == ctx.lift_poly(TH).scale_const(2)

    def test_exp_additive(self):
        ctx = TorsionContext(pol3("t^2+1"))
        for b1 in polys_below_degree(F3, 2):
            for b2 in polys_below_degree(F3, 2):
                assert (ctx.exp_value(b1) + ctx.exp_value(b2)
                        == ctx.exp_value(b1 + b2))

    def test_exp_zero_and_modulus(self):
        ctx = TorsionContext(TH)
        assert not ctx.exp_value(Pol.zero(F3))
        assert not ctx.exp_value(TH)

    def test_galois_moves_exp(self):
        ctx = TorsionContext(pol3("t^2+1"))
        b = pol3("t+2")
        g = ctx.galois(b)
        for beta in polys_below_degree(F3, 2):
            assert g(ctx.exp_value(beta)) == ctx.exp_value(b * beta)

    def test_joint_ring_partial_fractions(self):
        # exp at a divisor agrees with the single-prime context
        n = TH * pol3("t+1")
        ctx = TorsionContext(n)
        sub = TorsionContext(TH)
        for beta in polys_below_degree(F3, 1):
            v = ctx.exp_at(beta, TH)
            w = sub.exp_value(beta)
            # both satisfy the same torsion polynomial and match as
            # C_beta(lambda): compare through the Carlitz coefficients
            assert v.format() == w.format()

    @pytest.mark.parametrize("field, coeffs, ext", [
        (F3, (0, 1), 1), (F3, (1, 0, 1), 1), (F3, (0, 1, 1), 1),
        (F3, (0, 2, 0, 1), 1), (F5, (2, 0, 1), 1), (F4, (0, 1, 1), 1),
        (F9, (0, 1), 1), (F9, (1, 0, 1), 1), (F3, (1, 2, 0, 1), 3)],
        ids=["q3-t", "q3-t2+1", "q3-t2+t", "q3-t3+2t", "q5-t2+2", "q4-t2+t",
             "q9-t", "q9-t2+1", "q3-t3+2t+1-d3"])
    def test_exp_value_matches_partial_fractions(self, field, coeffs, ext):
        # C_beta(lambda_n) = sum_i C_{beta*s_i}(lambda_i) with
        # s_i*(n/p_i) + t_i*p_i = 1, the cofactors recomputed here and each
        # term evaluated by carlitz_action
        modulus = Pol(field, coeffs)
        ctx = TorsionContext(modulus, ext_degree=ext)
        assert ctx.lam == ctx.exp_value(Pol.one(field))
        cofs = [(modulus // prime).xgcd(prime)[1] for prime in ctx.primes]
        for beta in ctx.residues():
            want = ctx.ring.zero
            for i, s in enumerate(cofs):
                want = want + carlitz_action(beta * s, ctx.gens[i])
            assert ctx.exp_value(beta) == want

    def test_exp_at_requires_divisor(self):
        ctx = TorsionContext(TH)
        with pytest.raises(ValueError):
            ctx.exp_at(Pol.one(F3), pol3("t+1"))

    def test_units_divisor(self):
        ctx = TorsionContext(TH * pol3("t+1"))
        assert len(ctx.units()) == 4
        assert len(ctx.units(TH)) == 2
        assert len(ctx.residues(TH)) == 3


def _shift_uncached(f, lam):
    """shift_by_value with its own running product for the powers of lam."""
    ctx = f.ctx
    N = f.prec
    p = ctx.field.p
    ring = ctx.ring
    pows = [ring.one]
    for _ in range(1, N):
        pows.append(pows[-1] * lam)
    out = [ring.zero] * N
    for i, c in enumerate(f.coeffs):
        if not c:
            continue
        if i == 0:
            out[0] = out[0] + c
            continue
        for n in range(i, N):
            b = lucas_binomial(-i, n - i, p)
            if b:
                term = c * pows[n - i] if n != i else c
                out[n] = out[n] + term.scale_const(b % p)
    return UExpansion(ctx, out, N, None, f.var)


def _memo_elements(ctx):
    """A torsion value and a generic element with a denominator."""
    field = ctx.field
    theta = Pol.x(field)
    torsion = ctx.exp_value(theta + Pol.one(field))
    generic = (ctx.lam * ctx.lift_poly(theta)
               + ctx.lift_poly(theta + Pol.one(field)).invert())
    return torsion, generic


class TestTorsionMemos:
    @pytest.mark.parametrize("field, coeffs", MEMO_LEVELS, ids=MEMO_IDS)
    def test_powers_long_then_short(self, field, coeffs):
        ctx = TorsionContext(Pol(field, coeffs))
        for x in _memo_elements(ctx):
            long = ctx.powers(x, 7)
            short = ctx.powers(x, 3)
            for m, pows in ((7, long), (3, short)):
                assert len(pows) >= m
                for j in range(m):
                    assert pows[j] == x ** j

    @pytest.mark.parametrize("field, coeffs", MEMO_LEVELS, ids=MEMO_IDS)
    def test_powers_short_then_long(self, field, coeffs):
        ctx = TorsionContext(Pol(field, coeffs))
        for x in _memo_elements(ctx):
            short = list(ctx.powers(x, 3))
            long = ctx.powers(x, 7)
            assert long[:3] == short[:3]
            for j in range(7):
                assert long[j] == x ** j

    def test_powers_zero_and_one(self):
        ctx = TorsionContext(TH)
        assert ctx.powers(ctx.ring.zero, 3)[:3] == [ctx.ring.one,
                                                    ctx.ring.zero,
                                                    ctx.ring.zero]
        assert ctx.powers(ctx.ring.one, 1)[0] == ctx.ring.one

    def test_powers_keyed_by_value(self):
        ctx = TorsionContext(pol3("t^2+1"))
        a = ctx.exp_value(pol3("t+1"))
        b = ctx.exp_value(TH) + ctx.exp_value(Pol.one(F3))
        assert a == b and a is not b
        assert ctx.powers(a, 4) is ctx.powers(b, 4)
        assert ctx.powers(a, 4) is not ctx.powers(a + a, 4)

    def test_powers_per_context(self):
        one, two = TorsionContext(TH), TorsionContext(TH)
        p1 = one.powers(one.lam, 4)
        p2 = two.powers(two.lam, 4)
        assert p1 is not p2
        assert [x.coords for x in p1[:4]] == [x.coords for x in p2[:4]]
        assert all(x.ring is one.ring for x in p1)
        assert all(x.ring is two.ring for x in p2)

    @pytest.mark.parametrize("field, coeffs", MEMO_LEVELS, ids=MEMO_IDS)
    def test_shift_by_value_matches_uncached(self, field, coeffs):
        ctx = TorsionContext(Pol(field, coeffs))
        theta = ctx.lift_poly(Pol.x(field))
        f = UExpansion(ctx, [theta, ctx.ring.one, ctx.ring.zero, ctx.lam,
                             theta * ctx.lam, ctx.ring.one], 6)
        g = UExpansion(ctx, list(f.coeffs) + [theta, ctx.lam], 9)
        for lam in _memo_elements(ctx):
            # precision 6, again 6 from the memo, then 9 past it
            for h in (f, f, g):
                want = _shift_uncached(h, lam)
                got = shift_by_value(h, lam)
                assert got.prec == want.prec
                assert got.coeffs == want.coeffs


class TestTorsionInverse:
    @pytest.mark.parametrize("field, coeffs, ext", TORSION_LEVELS,
                             ids=TORSION_IDS)
    def test_matches_linear_solve(self, field, coeffs, ext):
        # 1/lam from C_level(lam) = 0 against REl.invert, for every unit of
        # the modulus and of each prime factor
        modulus = Pol(field, coeffs)
        ctx = TorsionContext(modulus, ext_degree=ext)
        levels = [modulus] + (ctx.primes if len(ctx.primes) > 1 else [])
        for level in levels:
            inverse = ctx.torsion_inverse(level)
            for a in ctx.units(level):
                lam = ctx.exp_at(a, level)
                assert inverse(lam) == lam.invert()
                assert inverse(lam) * lam == ctx.ring.one


def _residue_modulus(ctx):
    """Q of residue_point by its definition: the first monic irreducible
    modulus*m + 1, m monic, of a degree that the extension degree divides."""
    field, modulus = ctx.field, ctx.modulus
    ext = ctx.big.n // field.n
    for deg in range(modulus.degree, 4 * modulus.degree + 4):
        if deg % ext == 0:
            for m in monics_of_degree(field, deg - modulus.degree):
                Q = modulus * m + Pol.one(field)
                if is_irreducible(Q):
                    return Q
    raise AssertionError("no Q found")


def _random_element(ctx, rng):
    """An integral element with random theta-polynomials of degree < 4 on
    random monomials."""
    field = ctx.field
    ring = ctx.ring
    x = ring.zero
    mono = ring.one
    for _ in range(ring.total):
        c = Pol(field, [rng.randrange(field.order) for _ in range(4)])
        x = x + ctx.lift_poly(c) * mono
        mono = mono * ctx.gens[rng.randrange(len(ctx.gens))]
    return x


class _PowerCacheGaloisMap:
    """The Galois map as it was before it read its powers from
    TorsionContext.powers: a power cache of its own per image."""

    def __init__(self, ctx, images):
        self.ctx = ctx
        self.images = images
        self._powcache = [{1: im} for im in images]

    def _impow(self, i, e):
        cache = self._powcache[i]
        if e not in cache:
            cache[e] = self._impow(i, e - 1) * self.images[i]
        return cache[e]

    def _monomial(self, exps):
        out = self.ctx.ring.one
        for i, e in enumerate(exps):
            if e:
                out = out * self._impow(i, e)
        return out

    def __call__(self, x):
        return self.ctx.ring.dot([(c, self._monomial(exps))
                                  for exps, c in x.terms()])


# (field, modulus coefficients, extension degree): a composite level, a
# quadratic prime with d = 2, a split level over F_4 and a prime over F_5
GALOIS_LEVELS = [(F3, (0, 1, 1), 1), (F3, (1, 0, 1), 2), (F4, (1, 1, 1), 1),
                 (F5, (2, 0, 1), 1)]
GALOIS_IDS = ["q3-t2+t", "q3-t2+1-d2", "q4-t2+t+1", "q5-t2+2"]


class TestGaloisAction:
    @pytest.mark.parametrize("field, coeffs, ext", GALOIS_LEVELS,
                             ids=GALOIS_IDS)
    def test_matches_power_cache_map(self, field, coeffs, ext):
        # galois(b) against the old map with images C_b(lambda_i) from
        # carlitz_action, on elements with denominators; and
        # sigma_b(x*y) = sigma_b(x)*sigma_b(y)
        ctx = TorsionContext(Pol(field, coeffs), ext_degree=ext)
        rng = random.Random(5)
        theta = Pol.x(field)
        dens = [ctx.lift_poly(theta + Pol.one(field)).invert(),
                ctx.lift_poly(theta * theta + Pol.const(field, 2)).invert()]
        elements = [_random_element(ctx, rng) * den for den in dens]
        elements.append(elements[0] + _random_element(ctx, rng))
        for b in ctx.units():
            sigma = ctx.galois(b)
            old = _PowerCacheGaloisMap(
                ctx, [carlitz_action(b, g) for g in ctx.gens])
            for x in elements:
                assert not x.den.is_one()
                assert sigma(x) == old(x)
            x, y = elements[:2]
            assert sigma(x * y) == sigma(x) * sigma(y)


class TestResiduePoint:
    @pytest.mark.parametrize("field, coeffs, ext", TORSION_LEVELS,
                             ids=TORSION_IDS)
    def test_point(self, field, coeffs, ext):
        ctx = TorsionContext(Pol(field, coeffs), ext_degree=ext)
        T, emb, alpha, roots = ctx.residue_point()
        Q = _residue_modulus(ctx)
        assert Q % ctx.modulus == Pol.one(field)
        assert T is finite_field(field.p, field.n * Q.degree)
        assert emb == T.embedding(ctx.big)
        base = [emb[c] for c in ctx.emb]
        assert Q.eval_in(T, alpha, base) == 0
        for rel, r in zip(ctx.ring.relations, roots):
            phi = Pol(T, [c.eval_in(T, alpha, emb) for c in rel])
            # the relation splits into distinct linear factors over T
            found = phi.roots_in(T, T.embedding(T))
            assert r == found[0] and len(found) == phi.degree

    @pytest.mark.parametrize("field, coeffs, ext", TORSION_LEVELS,
                             ids=TORSION_IDS)
    def test_evaluator_is_a_homomorphism(self, field, coeffs, ext):
        ctx = TorsionContext(Pol(field, coeffs), ext_degree=ext)
        T, emb, alpha, roots = point = ctx.residue_point()
        image = evaluator(ctx.ring, *point)
        Q = _residue_modulus(ctx)
        assert image(ctx.lift_poly(Pol.x(field))) == alpha
        assert image(ctx.lift_poly(Q)) == 0
        for g, r in zip(ctx.gens, roots):
            assert image(g) == r
        for c in range(ctx.big.order):
            assert image(ctx.big_const(c)) == emb[c]
        rng = random.Random(5)
        xs = [_random_element(ctx, rng) for _ in range(4)]
        # denominators theta + 1 and the modulus, both prime to Q, and the
        # inverse of a torsion value
        for x, d in ((xs[0], ctx.lift_poly(Pol.x(field) + Pol.one(field))),
                     (xs[1], ctx.lift_poly(ctx.modulus)), (xs[2], ctx.lam)):
            xs.append(x * d.invert())
        assert not (xs[-3].den.is_one() or xs[-2].den.is_one())
        for x in xs:
            for y in xs:
                assert image(x * y) == T.mul(image(x), image(y))
                assert image(x + y) == T.add(image(x), image(y))
        # a denominator vanishing at alpha has no image
        assert image(ctx.lift_poly(Q).invert()) is None
        assert image(xs[1] * ctx.lift_poly(Q * Pol.x(field)).invert()) is None

    @pytest.mark.parametrize("field, coeffs, ext", TORSION_LEVELS,
                             ids=TORSION_IDS)
    def test_reduced_context_computes_images(self, field, coeffs, ext):
        # every value the reduced context computes is the image in T of
        # the value the exact context computes
        ctx = TorsionContext(Pol(field, coeffs), ext_degree=ext)
        red = ctx.reduced()
        T, emb, alpha, roots = ctx.residue_point()
        image = point_image(ctx)
        assert red.ring.field is T and red.modulus is ctx.modulus
        assert [g.code for g in red.gens] == roots
        assert red.lam.code == image(ctx.lam)
        assert red.lift_poly(Pol.x(field)).code == alpha
        for c in range(ctx.big.order):
            assert red.big_const(c).code == emb[c]
        for beta in ctx.residues():
            assert red.exp_value(beta).code == image(ctx.exp_value(beta))
        for level in ctx.primes:
            inverse, red_inverse = (c.torsion_inverse(level)
                                    for c in (ctx, red))
            for a in ctx.units(level):
                assert red_inverse(red.exp_at(a, level)).code == image(
                    inverse(ctx.exp_at(a, level)))
        for x, y in zip(goss_coeffs_in(ctx, 2 * field.order + 1),
                        goss_coeffs_in(red, 2 * field.order + 1)):
            assert y.code == image(x)
        # inverting an element that vanishes in T
        Q = _residue_modulus(ctx)
        with pytest.raises(NotReducible):
            red.lift_poly(Q).invert()

    @pytest.mark.parametrize("field, coeffs, ext", TORSION_LEVELS[:4],
                             ids=TORSION_IDS[:4])
    def test_residues_are_interned(self, field, coeffs, ext):
        # one Residue per code of T: every operation returns the held
        # element of the table's code, so == and hash follow the code
        ctx = TorsionContext(Pol(field, coeffs), ext_degree=ext)
        ring = ctx.reduced().ring
        T, elems, emb = ring.field, ring.elems, ring.emb
        assert [x.code for x in elems] == list(T.elements())
        assert ring.zero is elems[0] and ring.one is elems[1]
        for a, x in enumerate(elems):
            assert -x is elems[T.neg_table[a]]
            assert x.coords == a and bool(x) == bool(a)
            if a:
                assert x.invert() is elems[T.inv_table[a]]
            for b, y in enumerate(elems):
                assert x + y is elems[T.add_table[a][b]]
                assert x * y is elems[T.mul_table[a][b]]
                assert x - y is elems[T.add_table[a][T.neg_table[b]]]
                assert (x == y) == (a == b)
            for c in range(0, len(emb), 3):
                assert x.scale_const(c) is elems[T.mul_table[a][emb[c]]]
        sums = [x + ring.zero for x in elems] + [ring.one * x for x in elems]
        assert len(set(sums)) == T.order
        assert all(hash(x) == hash(elems[x.code]) for x in sums)
        assert ring.dot([(elems[-1], elems[-1]), (ring.one, ring.one)]) is \
            elems[T.add_table[T.mul_table[T.order - 1][T.order - 1]][1]]
        assert ring.from_const(len(emb) - 1) is elems[emb[-1]]
        theta = Pol.x(field).map_to(ctx.big, ctx.emb)
        assert ring.from_pol(theta) is elems[ring.alpha]
        assert [ring.gen(i) for i in range(len(ring.roots))] == [
            elems[r] for r in ring.roots]
        # one ring per point, so a new context shares these elements
        again = TorsionContext(Pol(field, coeffs), ext_degree=ext).reduced()
        assert again.ring is ring and again.lam is ctx.reduced().lam

    def test_none_past_order_limit(self):
        # over F_5, t^2+3 + 1 = (t+1)(t+4), so Q has degree 4 and F_625
        # would be the residue field
        ctx = TorsionContext(parse_pol(F5, "t^2+3"), ext_degree=2)
        assert F5.order ** _residue_modulus(ctx).degree > RESIDUE_ORDER_MAX
        assert ctx.residue_point() is None
        # over F_4, t^2+wt+1 + 1 = t(t+w): F_256, whose tables cost more
        # than the exact rank at this level
        ctx = TorsionContext(Pol(F4, (1, 2, 1)), ext_degree=2)
        assert _residue_modulus(ctx).degree == 4
        assert F4.order ** 4 > RESIDUE_ORDER_MAX
        assert ctx.residue_point() is None and ctx.reduced() is None


class TestGossPolynomials:
    def test_monomial_range(self):
        # G_k = X^k for k <= q
        for field in (F3, F5):
            q = field.order
            for k in range(1, q + 1):
                coeffs = goss_polys(field, k)[k]
                assert len(coeffs) == k + 1
                assert not any(coeffs[:k])
                assert coeffs[k] == coeffs[k].one(field) or coeffs[k]

    def test_first_composite(self):
        # q=3: G_4 = X^4 + X^2/D_1, D_1 = theta^3 - theta
        coeffs = goss_polys(F3, 4)[4]
        d1 = pol3("t^3+2*t")
        assert coeffs[4].is_pol() and coeffs[4].num.is_one()
        assert coeffs[2].den == d1
        assert coeffs[2].num.is_one()
        assert not coeffs[1] and not coeffs[3] and not coeffs[0]

    def test_support_invariants(self):
        # monic of degree k; no constant term; support only at j = k mod (q-1)
        for field in (F3, F5):
            q = field.order
            polys = goss_polys(field, 4 * q)
            for k in range(1, 4 * q + 1):
                coeffs = polys[k]
                assert len(coeffs) == k + 1
                assert coeffs[k].is_pol() and coeffs[k].num.is_one()
                assert not coeffs[0]
                for j, c in enumerate(coeffs):
                    if c:
                        assert j % (q - 1) == k % (q - 1)
                        assert j >= 1

    def test_both_constructions_agree(self):
        # goss_polys (the recursion) against the generating identity at
        # N = 4q, past every weight the suites, workloads and tests ask for
        for p, n in ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2)):
            field = finite_field(p, n)
            N = 4 * field.order
            assert (goss_polys(field, N)[1:]
                    == goss_generating(field, N)[1:]), field.order

    @pytest.mark.parametrize("field, coeffs, ext", TORSION_LEVELS[:4],
                             ids=TORSION_IDS[:4])
    def test_lifted_coefficients_are_the_fractions(self, field, coeffs, ext):
        # past k = q the coefficients are fractions; each lifts to the
        # scalar whose one coordinate is that fraction over the big field
        ctx = TorsionContext(Pol(field, coeffs), ext_degree=ext)
        ring, k = ctx.ring, 2 * field.order + 1
        zeros = [RF.zero(ctx.big)] * (ring.total - 1)
        fractions = 0
        for c, x in zip(goss_polys(field, k)[k], goss_coeffs_in(ctx, k)):
            want = RF(c.num.map_to(ctx.big, ctx.emb),
                      c.den.map_to(ctx.big, ctx.emb))
            assert x.rf_coords() == [want] + zeros
            fractions += not want.is_pol()
        assert fractions
