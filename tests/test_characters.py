"""Dirichlet characters on A/nA, convolutions, Gauss-Thakur sums, and the
power sums s(chi, k)."""

import itertools

import pytest

from drinfeld import characters
from drinfeld.algebra import (FiniteField, Pol, factor_squarefree_monic,
                              finite_field, parse_pol, polys_below_degree)
from drinfeld.carlitz import TorsionContext
from drinfeld.characters import (DirichletCharacter, convolve, gauss_thakur,
                                 jacobi_factor, orbit_sums, power_sums,
                                 root_power_rows)
from drinfeld.errors import ConductorMismatch, NotPrimitive
from drinfeld.operators import (twist_monomial_closed, twist_normalized,
                                twist_raw)
from drinfeld.series import ModularMeta, TwistedEisenstein, UExpansion

from residue_oracle import first_reduced, point_image, value_images

F2 = finite_field(2)
F3 = finite_field(3)
F4 = finite_field(2, 2)
F5 = finite_field(5)
F9 = finite_field(3, 2)
TH = Pol.x(F3)


def char_sum_s(chi, k, ctx):
    """s(chi, k) = sum over residues beta of chi^{-1}(beta) exp(beta/n)^k,
    for n the conductor (a divisor of the context modulus)."""
    return power_sums(ctx, ctx.conductor_of(chi), (k,), chi)[0]


def all_residue_power_sums(ctx, n, exponents, chi):
    """power_sums as one combine over every residue beta mod n, for every
    exponent: no F_q^*-orbit folding and no sign rule."""
    inv = chi.inverse()
    codes, pows, count = [], [], max(exponents, default=0) + 1
    for beta in ctx.residues(n):
        code = ctx.char_value(inv, beta)
        if code:
            codes.append(code)
            pows.append(ctx.powers(ctx.exp_at(beta, n), count))
    return [ctx.ring.combine([x[j] for x in pows], [codes])[0]
            for j in exponents]


def all_residue_orbit_sums(ctx, n, rows, exponents):
    """orbit_sums as one combine over every residue beta mod n, for every
    exponent and every row: no F_q^*-orbit folding and no sign rule."""
    betas = ctx.residues(n)
    count = max(exponents, default=0) + 1
    pows = [ctx.powers(ctx.exp_at(beta, n), count) for beta in betas]
    return [ctx.ring.combine([x[j] for x in pows],
                             [[w(beta) for beta in betas] for _, w in rows])
            for j in exponents]


def all_delta_basic_gauss_sum(ctx, prime, root):
    """g(chi_zeta) as the sum over every nonzero delta mod prime."""
    big = ctx.big
    deltas = [delta for delta in ctx.residues(prime) if delta]
    row = [big.inv(delta.eval_in(big, root, ctx.emb)) for delta in deltas]
    return ctx.ring.combine([ctx.exp_at(delta, prime) for delta in deltas],
                            [row])[0]


def pol3(text):
    return parse_pol(F3, text)


def direct_convolve(chi1, chi2, delta):
    """(chi1 * chi2)(delta) as the loop over residues a of
    chi1.eval(a) * chi2.eval(delta - a), with delta as given."""
    big = chi1.big
    out = 0
    for a in polys_below_degree(chi1.field, chi1.conductor.degree):
        out = big.add(out, big.mul(chi1.eval(a), chi2.eval(delta - a)))
    return out


def convolvable(chi):
    """Whether convolve accepts chi: every exponent in 1..|p|-2."""
    q = chi.field.order
    return all(1 <= e <= q ** p.degree - 2 for p, _, e in chi.factors)


def all_primitive(npol):
    primes = factor_squarefree_monic(npol)
    q = npol.field.order
    ranges = [range(1, q ** p.degree - 1) for p in primes]
    return [DirichletCharacter(npol.field,
                               [(p, None, e) for p, e in zip(primes, exps)])
            for exps in itertools.product(*ranges)]


class TestCharacter:
    def test_multiplicative(self):
        chi = DirichletCharacter.from_conductor(pol3("t^2+1"), 3)
        big = chi.big
        units = [b for b in polys_below_degree(F3, 2)
                 if b and b.gcd(pol3("t^2+1")).is_one()]
        for a in units:
            for b in units:
                assert chi.eval((a * b) % pol3("t^2+1")) == big.mul(
                    chi.eval(a), chi.eval(b))

    def test_inverse_and_product(self):
        chi = DirichletCharacter.from_conductor(pol3("t^2+1"), 3)
        prod = chi * chi.inverse()
        assert prod.is_trivial()
        assert chi.inverse().inverse() == chi

    def test_vanishing_on_nonunits(self):
        chi = DirichletCharacter.from_conductor(TH, 1)
        assert chi.eval(Pol.zero(F3)) == 0
        assert chi.eval(TH) == 0

    def test_sign_counts(self):
        # at conductor t^2+1 (q=3) the 7 nontrivial characters split by
        # parity of the exponent: 4 odd-sign, 3 even-sign
        chis = all_primitive(pol3("t^2+1"))
        signs = [chi.sign for chi in chis]
        assert signs.count(1) == 4
        assert signs.count(0) == 3

    def test_primitivity(self):
        assert DirichletCharacter.from_conductor(TH, 1).is_primitive()
        assert not DirichletCharacter.trivial(TH).is_primitive()

    def test_conductor_mismatch_on_product(self):
        chi1 = DirichletCharacter.from_conductor(TH, 1)
        chi2 = DirichletCharacter.from_conductor(pol3("t+1"), 1)
        with pytest.raises(ConductorMismatch):
            chi1 * chi2


class TestDerivedCharacters:
    # chi mod theta*(theta^2+1) over F_9, exponents chosen per factor
    MOD = TH * pol3("t^2+1")

    def chars(self):
        big = finite_field(3, 2)
        return (DirichletCharacter.from_conductor(self.MOD, [1, 3], big=big),
                DirichletCharacter.from_conductor(self.MOD, [1, 7], big=big))

    def test_derived_characters_are_not_validated_again(self, monkeypatch):
        chi, psi = self.chars()
        calls = []
        real = characters.is_irreducible
        monkeypatch.setattr(characters, "is_irreducible",
                            lambda f: calls.append(f) or real(f))
        chi.inverse()
        chi * psi
        assert calls == []

    def test_derived_characters_equal_constructed_ones(self):
        chi, psi = self.chars()
        for got, exps in ((chi.inverse(), [-e for _, _, e in chi.factors]),
                          (chi * psi, [e1 + e2 for (_, _, e1), (_, _, e2)
                                       in zip(chi.factors, psi.factors)])):
            want = DirichletCharacter(
                F3, [(p, r, e) for (p, r, _), e in zip(chi.factors, exps)],
                big=chi.big)
            assert got == want and got.factors == want.factors
            assert got.conductor == want.conductor and got.emb is want.emb
            for a in polys_below_degree(F3, 3):
                assert got.eval(a) == want.eval(a)


class TestCharacterData:
    @pytest.mark.parametrize("prime, root", [
        (pol3("t^2+1"), 0),    # theta is a unit mod theta^2+1: chi(theta) = 0
        (pol3("t^2+1"), 7),    # the roots in F_9 are 3 and 6
        (pol3("t^2+1"), 100),  # not a code of F_9
        (pol3("t^2"), None),   # not prime
        (pol3("2t+1"), None),  # not monic
    ], ids=["not-a-root", "other-code", "not-a-code", "square", "non-monic"])
    def test_rejects_bad_data(self, prime, root):
        with pytest.raises(ValueError):
            DirichletCharacter(F3, [(prime, root, 1)])

    def test_accepts_every_root(self):
        p2 = pol3("t^2+1")
        roots = [DirichletCharacter(F3, [(p2, r, 1)]).factors[0][1]
                 for r in (None, 3, 6)]
        assert roots == [3, 3, 6]

    def test_eval_builds_no_embedding(self, monkeypatch):
        # the map F_q -> big is taken once, at construction, and is the
        # context's own when the big fields agree
        ctx = TorsionContext(pol3("t^2+1") * TH, ext_degree=2)
        chi = DirichletCharacter.from_conductor(pol3("t^2+1"), 3, big=ctx.big)
        assert chi.emb is ctx.emb
        calls = []
        embedding = FiniteField.embedding
        monkeypatch.setattr(FiniteField, "embedding",
                            lambda big, sub: calls.append(sub)
                            or embedding(big, sub))
        values = [chi.eval(a) for a in polys_below_degree(F3, 2)]
        values += [ctx.char_value(chi, a) for a in polys_below_degree(F3, 2)]
        assert calls == [] and any(values)

    def test_other_constant_field_rejected(self):
        # chi mod theta takes its values in F_3, the context's constants
        # are F_9: no value is carried from one field into the other
        ctx = TorsionContext(TH * pol3("t^2+1"), ext_degree=2)
        chi = DirichletCharacter.from_conductor(TH, 1)
        assert chi.big is F3 and ctx.big is finite_field(3, 2)
        with pytest.raises(ConductorMismatch, match=r"GF\(3\).*GF\(3\^2\)"):
            ctx.char_value(chi, pol3("t+1"))
        with pytest.raises(ConductorMismatch):
            gauss_thakur(chi, ctx)
        f = UExpansion.u(ctx, 9).with_meta(ModularMeta(0, 0))
        with pytest.raises(ConductorMismatch):
            twist_raw(f, chi, ctx)
        same = DirichletCharacter.from_conductor(TH, 1, big=ctx.big)
        assert ctx.char_value(same, pol3("t+1")) == 1
        assert gauss_thakur(same, ctx)


class TestConvolution:
    def test_lemma_at_linear_conductor(self):
        chis = all_primitive(TH)
        for chi1, chi2 in itertools.product(chis, repeat=2):
            scalar, prod = jacobi_factor(chi1, chi2)
            for delta in polys_below_degree(F3, 1):
                want = chi1.big.mul(prod.eval(delta), scalar)
                assert convolve(chi1, chi2, delta) == want

    def test_known_zero_binomial_case(self):
        # q=5, conductor t^2+2: exponents whose Jacobi binomial C(1,22)
        # vanishes give identically zero convolutions of nontrivial product
        F5 = finite_field(5)
        n = parse_pol(F5, "t^2+2")
        chi1 = DirichletCharacter.from_conductor(n, 2)
        chi2 = DirichletCharacter.from_conductor(n, 1)
        scalar, prod = jacobi_factor(chi1, chi2)
        assert scalar == 0
        for delta in [Pol.one(F5), parse_pol(F5, "t+1")]:
            assert convolve(chi1, chi2, delta) == 0


# (q, conductor): theta, a quadratic and theta*(theta+1) for q = 3, 4, 5;
# t^2+1 = (t+1)^2 is not square-free over F_4, which takes t^2+t+w instead
CONVOLUTION_LEVELS = [(q, text) for q in (3, 4, 5)
                      for text in ("t", "t^2+t+w" if q == 4 else "t^2+1",
                                   "t^2+t")]


@pytest.mark.parametrize("q, ntext", CONVOLUTION_LEVELS,
                         ids=["q%d-%s" % level for level in CONVOLUTION_LEVELS])
def test_convolve_equals_residue_loop(q, ntext):
    # convolve reads value tables and a residue-difference index; the loop
    # evaluates both characters at every residue.  Characters made by
    # inverse() and chi * psi skip __init__, and must tabulate their own
    # values, not their parents'.
    field = {3: F3, 4: F4, 5: F5}[q]
    npol = parse_pol(field, ntext.replace("w", "2"))
    base = all_primitive(npol)[:3]
    for chi in base:
        chi.values()  # tabulated before any character is made from it
    made = [chi.inverse() for chi in base] + [
        chi * psi for chi, psi in itertools.combinations(base, 2)]
    made = [chi for chi in made if convolvable(chi)]
    assert made
    pairs = (list(itertools.product(base, base + made))
             + list(itertools.product(made, base[:1])))
    deltas = polys_below_degree(field, npol.degree)
    for chi1, chi2 in pairs:
        for delta in deltas:
            assert convolve(chi1, chi2, delta) == direct_convolve(
                chi1, chi2, delta)


@pytest.mark.parametrize("q, ntext", [(3, "t^2+1"), (5, "t^2+t")],
                         ids=["q3-t2+1", "q5-t2+t"])
def test_convolve_reduces_delta(q, ntext):
    # a delta of degree >= deg n is read as its residue mod n
    field = {3: F3, 5: F5}[q]
    npol = parse_pol(field, ntext)
    chi1, chi2 = all_primitive(npol)[:2]
    for m in (Pol.one(field), Pol.x(field), parse_pol(field, "t^3+2t+1")):
        for delta in polys_below_degree(field, npol.degree):
            far = delta + npol * m
            assert far.degree >= npol.degree
            want = convolve(chi1, chi2, delta)
            assert convolve(chi1, chi2, far) == want
            assert direct_convolve(chi1, chi2, far) == want


class TestGaussThakur:
    def test_basic_value(self):
        # q=3, conductor theta: g(chi_zeta) = 2*lambda, g^2 = -theta
        ctx = TorsionContext(TH)
        chi = DirichletCharacter.from_conductor(TH, 1)
        g = gauss_thakur(chi, ctx)
        lam = ctx.gens[0]
        assert g == lam.scale_const(2)
        assert g * g == ctx.lift_poly(TH).scale_const(2)

    def test_trivial_character(self):
        ctx = TorsionContext(TH)
        assert gauss_thakur(DirichletCharacter.trivial(TH), ctx) == ctx.ring.one

    def test_nonprimitive_rejected(self):
        n = TH * pol3("t+1")
        ctx = TorsionContext(n)
        half = DirichletCharacter(F3, [(TH, None, 1), (pol3("t+1"), None, 0)])
        with pytest.raises(NotPrimitive):
            gauss_thakur(half, ctx)

    def test_divisor_conductor_in_joint_ring(self):
        # the sum for a character mod theta embeds consistently in the
        # theta*(theta+1) torsion ring
        chi = DirichletCharacter.from_conductor(TH, 1)
        small = gauss_thakur(chi, TorsionContext(TH))
        joint = gauss_thakur(chi, TorsionContext(TH * pol3("t+1")))
        assert small.format() == joint.format()

    @pytest.mark.parametrize("e", [1, 5], ids=["digit1", "digits21"])
    def test_reduced_context_gives_the_image(self, e):
        # over T = A/Q the sum and both normalized twists are the images of
        # the exact values, numerators over dens; e = 5 = 12 in base 3
        # raises a basic sum to the digit 2
        ctx = TorsionContext(pol3("t^2+1"), ext_degree=2)
        red, image = first_reduced(ctx), point_image(ctx)
        T = red.ring.field
        chi = DirichletCharacter.from_conductor(ctx.modulus, e, big=ctx.big)
        assert gauss_thakur(chi, red).code == image(gauss_thakur(chi, ctx))
        f, g = (UExpansion.u(c, 12, meta=ModularMeta(0, 0))
                for c in (ctx, red))
        for exact, reduced in (
                (twist_normalized(f, chi, ctx), twist_normalized(g, chi, red)),
                (twist_monomial_closed(2, chi, ctx, 12),
                 twist_monomial_closed(2, chi, red, 12))):
            assert exact.den is not None
            assert [c.code for c in reduced.coeffs] == value_images(
                image, T, exact)

    def test_conductor_must_divide(self):
        ctx = TorsionContext(TH)
        chi = DirichletCharacter.from_conductor(pol3("t+1"), 1)
        with pytest.raises(ConductorMismatch):
            gauss_thakur(chi, ctx)

    @pytest.mark.parametrize("entry", [
        lambda chi, ctx: twist_raw(
            UExpansion.u(ctx, 9).with_meta(ModularMeta(0, 0)), chi, ctx),
        lambda chi, ctx: TwistedEisenstein.build(ctx, 1, chi),
        lambda chi, ctx: gauss_thakur(chi, ctx),
        lambda chi, ctx: char_sum_s(chi, 1, ctx),
    ], ids=["twist_raw", "eisenstein_build", "gauss_thakur", "char_sum_s"])
    def test_conductor_mismatch_names_both_polynomials(self, entry):
        # chi mod theta+1 read in the theta-torsion ring
        ctx = TorsionContext(TH)
        chi = DirichletCharacter.from_conductor(pol3("t+1"), 1)
        with pytest.raises(ConductorMismatch,
                           match=r"conductor t\+1 .* modulus t$"):
            entry(chi, ctx)

    @pytest.mark.parametrize("npol, e", [
        (TH, 1), (pol3("t^2+1"), 3), (TH * pol3("t+1"), 1),
        (Pol(F4, (2, 1, 1)), 5)], ids=["q3-t", "q3-t2+1", "q3-t2+t", "q4"])
    def test_memo_per_context(self, npol, e):
        # the second call returns the stored sum; a fresh context
        # recomputes the same value
        ctx = TorsionContext(npol, ext_degree=npol.degree)
        chi = DirichletCharacter.from_conductor(npol, e, big=ctx.big)
        g = gauss_thakur(chi, ctx)
        assert gauss_thakur(DirichletCharacter.from_conductor(
            npol, e, big=ctx.big), ctx) is g
        fresh = TorsionContext(npol, ext_degree=npol.degree)
        assert gauss_thakur(chi, fresh).coords == g.coords
        assert gauss_thakur(chi, fresh) is not g
        # further characters in the same context get entries of their own
        for other in (chi * chi, chi.inverse()):
            if other.is_primitive():
                alone = TorsionContext(npol, ext_degree=npol.degree)
                assert (gauss_thakur(other, ctx).coords
                        == gauss_thakur(other, alone).coords)


class TestCharSums:
    def test_golden_values(self):
        # q=3, conductor theta, chi = chi_zeta:
        # s(chi,0) = 0, s(chi,1) = 2*lambda, s(chi,2) = 0
        ctx = TorsionContext(TH)
        chi = DirichletCharacter.from_conductor(TH, 1)
        lam = ctx.gens[0]
        assert not char_sum_s(chi, 0, ctx)
        assert char_sum_s(chi, 1, ctx) == lam.scale_const(2)
        assert not char_sum_s(chi, 2, ctx)

    def test_sign_congruence_vanishing(self):
        # s(chi,k) = 0 whenever k is not congruent to s_chi mod q-1
        ctx = TorsionContext(pol3("t^2+1"), ext_degree=2)
        for e in (1, 2, 3):
            chi = DirichletCharacter.from_conductor(pol3("t^2+1"), e,
                                                    big=ctx.big)
            for k in range(0, 7):
                if k == 0 or k % 2 != chi.sign % 2:
                    assert not char_sum_s(chi, k, ctx)

    def test_divisor_conductor(self):
        chi = DirichletCharacter.from_conductor(TH, 1)
        small = char_sum_s(chi, 1, TorsionContext(TH))
        joint = char_sum_s(chi, 1, TorsionContext(TH * pol3("t+1")))
        assert small.format() == joint.format()

    @pytest.mark.parametrize("npol, conductor, e", [
        (pol3("t^2+1"), pol3("t^2+1"), 1), (pol3("t^2+1"), pol3("t^2+1"), 6),
        (TH * pol3("t+1"), TH, 1), (TH * pol3("t+1"), TH * pol3("t+1"), 1),
        (Pol(F4, (2, 1, 1)), Pol(F4, (2, 1, 1)), 5)],
        ids=["q3-t2+1-e1", "q3-t2+1-e6", "q3-divisor", "q3-t2+t", "q4"])
    def test_matches_uncached_powers(self, npol, conductor, e):
        # s(chi, k) from ctx.powers equals the sum over exp_at(beta, n)**k,
        # with k rising in one context and falling in another
        N = 8
        ctx = TorsionContext(npol, ext_degree=npol.degree)
        chi = DirichletCharacter.from_conductor(conductor, e, big=ctx.big)
        inv = chi.inverse()
        want = []
        for k in range(N + 1):
            out = ctx.ring.zero
            for beta in ctx.residues(conductor):
                code = ctx.char_value(inv, beta)
                if code:
                    lam = ctx.exp_at(beta, conductor)
                    out = out + (lam ** k).scale_const(code)
            want.append(out)
        assert [char_sum_s(chi, k, ctx) for k in range(N + 1)] == want
        assert any(want)
        down = TorsionContext(npol, ext_degree=npol.degree)
        chi = DirichletCharacter.from_conductor(conductor, e, big=down.big)
        got = [char_sum_s(chi, k, down) for k in range(N, -1, -1)]
        assert [x.coords for x in got[::-1]] == [x.coords for x in want]


# (modulus, conductor, exponents): q = 2, 3, 4, 5 and 9, trivial and
# non-primitive characters included
ORBIT_CASES = [
    (parse_pol(F2, "t^3+t+1"), parse_pol(F2, "t^3+t+1"), 3),
    (parse_pol(F2, "t^2+t+1"), parse_pol(F2, "t^2+t+1"), 0),
    (TH, TH, 0),
    (pol3("t^2+1"), pol3("t^2+1"), 3),
    (TH * pol3("t+1"), TH * pol3("t+1"), [1, 0]),
    (TH * pol3("t+1"), TH * pol3("t+1"), 0),
    (TH * pol3("t+1"), TH, 1),
    (Pol(F4, (2, 1, 1)), Pol(F4, (2, 1, 1)), 5),
    (parse_pol(F5, "t^2+2"), parse_pol(F5, "t^2+2"), 1),
    (parse_pol(F5, "t^2+2"), parse_pol(F5, "t^2+2"), 7),
    (parse_pol(F5, "t^2+2"), parse_pol(F5, "t^2+2"), 0),
    (Pol.x(F9), Pol.x(F9), 3),
]
ORBIT_IDS = ["q2-t3+t+1", "q2-trivial", "q3-t-trivial", "q3-t2+1",
             "q3-t2+t-nonprimitive", "q3-t2+t-trivial", "q3-divisor", "q4",
             "q5-e1", "q5-e7", "q5-trivial", "q9-t"]


class TestOrbitSums:
    """The beta-sums over monic residues against the all-residue sums."""

    @pytest.mark.parametrize("npol, conductor, e", ORBIT_CASES, ids=ORBIT_IDS)
    def test_power_sums_match_all_residues(self, npol, conductor, e):
        # every j < N: j = 0, j on and off sign chi mod q-1, and (for the
        # trivial character, whose sums vanish below |n| - 1) j = |n| - 1
        N = max(12, npol.field.order ** conductor.degree)
        ctx = TorsionContext(npol, ext_degree=npol.degree)
        chi = DirichletCharacter.from_conductor(conductor, e, big=ctx.big)
        got = power_sums(ctx, conductor, range(N), chi)
        oracle = TorsionContext(npol, ext_degree=npol.degree)
        chi = DirichletCharacter.from_conductor(conductor, e, big=oracle.big)
        want = all_residue_power_sums(oracle, conductor, range(N), chi)
        assert [x.coords for x in got] == [x.coords for x in want]
        assert any(want)

    @pytest.mark.parametrize("npol, e", [
        (pol3("t^2+t"), [1, 1]), (Pol(F4, (2, 1, 1)), 5), (Pol.x(F9), 3),
        (parse_pol(F5, "t^2+2"), 7), (parse_pol(F2, "t^3+t+1"), 3)],
        ids=["q3-t2+t", "q4", "q9-t", "q5", "q2"])
    def test_orbit_sums_match_all_residues(self, npol, e):
        # several rows at once: the trivial character (chi^{-1}(0) = 1, so
        # at j = 0 the beta = 0 term counts: its sum there is |n| = 0, which
        # folding beta = 0 into a -1 orbit would change), a primitive
        # chi^{-1}, and beta(zeta)^(-i) for i = 1, 2, 3, which over t^2+t
        # at the root zeta = 0 of t vanishes at beta = t, 2t as well as at 0
        N = max(10, npol.field.order ** npol.degree)

        def rows(ctx):
            trivial = DirichletCharacter.trivial(npol, big=ctx.big)
            inv = DirichletCharacter.from_conductor(
                npol, e, big=ctx.big).inverse()
            zeta = min(ctx.primes[0].roots_in(ctx.big))
            return ([(0, lambda b: ctx.char_value(trivial, b)),
                     (inv.sign, lambda b: ctx.char_value(inv, b))]
                    + root_power_rows(ctx, zeta, (-1, -2, -3)))
        ctx = TorsionContext(npol, ext_degree=npol.degree)
        got = orbit_sums(ctx, npol, rows(ctx), range(N))
        oracle = TorsionContext(npol, ext_degree=npol.degree)
        want = all_residue_orbit_sums(oracle, npol, rows(oracle), range(N))
        zero = ctx.ring.zero
        assert [[sums.get(r, zero).coords for r in range(5)]
                for sums in got] == [[x.coords for x in row] for row in want]
        # only the rows of j's class mod q-1 are summed; every row is
        # nonzero somewhere
        step = npol.field.order - 1
        assert [sorted(sums) for sums in got] == [
            [r for r, (s, _) in enumerate(rows(ctx)) if (s + j) % step == 0]
            for j in range(N)]
        assert all(any(sums.get(r) for sums in got) for r in range(5))
        # first powers alone take the path that builds no power chain
        ctx = TorsionContext(npol, ext_degree=npol.degree)
        first = orbit_sums(ctx, npol, rows(ctx), [1])[0]
        assert ([first.get(r, zero).coords for r in range(5)]
                == [x.coords for x in want[1]])

    @pytest.mark.parametrize("npol, exponents", [
        (Pol(F4, (2, 1, 1)), [5]), (Pol(F4, (2, 1, 1)), [7]),
        (parse_pol(F5, "t^2+2"), [1]), (parse_pol(F5, "t^2+2"), [13]),
        (Pol.x(F9), [5]), (pol3("t^2+1"), [5]),
        (TH * pol3("t+1"), [1, 1]), (parse_pol(F5, "t^2+t"), [3, 2])],
        ids=["q4-e5", "q4-e7", "q5-e1", "q5-e13", "q9-t", "q3-two-digits",
             "q3-two-primes", "q5-two-primes"])
    def test_gauss_thakur_matches_all_deltas(self, npol, exponents,
                                             monkeypatch):
        ctx = TorsionContext(npol, ext_degree=npol.degree)
        chi = DirichletCharacter.from_conductor(npol, exponents, big=ctx.big)
        got = gauss_thakur(chi, ctx)
        monkeypatch.setattr(characters, "_basic_gauss_sum",
                            all_delta_basic_gauss_sum)
        oracle = TorsionContext(npol, ext_degree=npol.degree)
        chi = DirichletCharacter.from_conductor(npol, exponents,
                                                big=oracle.big)
        want = gauss_thakur(chi, oracle)
        assert got.coords == want.coords
        assert got

    def test_twist_builds_powers_of_monic_residues_only(self):
        # q = 5, t^2+2: the twist reads lambda_beta for the 6 monic beta,
        # not for all 24 units, and no non-monic exp_value is computed
        npol = parse_pol(F5, "t^2+2")
        ctx = TorsionContext(npol, ext_degree=2)
        chi = DirichletCharacter.from_conductor(npol, 1, big=ctx.big)
        f = UExpansion.monomial(ctx, 1, 30).with_meta(ModularMeta(0, 0))
        twist_normalized(f, chi, ctx)
        assert all(Pol(F5, key).is_monic() for key in ctx._exp_cache)
        memo = set(ctx._powers)
        monics = [b for b in ctx.residues(npol) if b and b.is_monic()]
        others = [b for b in ctx.residues(npol) if b and not b.is_monic()]
        assert (len(monics), len(others)) == (6, 18)
        assert all(ctx.exp_value(b).coords in memo for b in monics)
        assert not any(ctx.exp_value(b).coords in memo for b in others)
