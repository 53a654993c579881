"""Arithmetic layer: finite fields, polynomials, rational functions,
quotient rings, and characteristic-p binomials."""

import functools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from drinfeld.algebra import (Pol, QuotientRing, RF, factor_squarefree_monic,
                              finite_field, irreducible_monics,
                              is_irreducible, lucas_binomial,
                              monics_of_degree, monics_up_to_degree,
                              parse_pol, polys_below_degree)
from drinfeld.algebra.field import _min_irreducible
from drinfeld.errors import NotInvertible, NotSquareFree, Unsupported

F3 = finite_field(3)
F4 = finite_field(2, 2)
F5 = finite_field(5)
F9 = finite_field(3, 2)

# The defining polynomial (c_0, ..., c_n) of F_{p^n} for every n >= 2 with
# p^n <= 4096.  Every field code, embedding and golden output depends on
# these, so a change to the search must leave them as they are.
DEFINING_POLYNOMIALS = {
    (2, 2): (1, 1, 1), (2, 3): (1, 1, 0, 1), (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1), (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1), (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (2, 9): (1, 1, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (2, 11): (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 12): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 2): (1, 0, 1), (3, 3): (1, 2, 0, 1), (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1), (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 7): (2, 0, 1, 0, 0, 0, 0, 1),
    (5, 2): (2, 0, 1), (5, 3): (1, 1, 0, 1), (5, 4): (2, 0, 0, 0, 1),
    (5, 5): (1, 4, 0, 0, 0, 1),
    (7, 2): (1, 0, 1), (7, 3): (2, 0, 0, 1), (7, 4): (1, 1, 0, 0, 1),
    (11, 2): (1, 0, 1), (11, 3): (4, 1, 0, 1),
    (13, 2): (2, 0, 1), (13, 3): (2, 0, 0, 1),
    (17, 2): (3, 0, 1), (19, 2): (1, 0, 1), (23, 2): (1, 0, 1),
    (29, 2): (2, 0, 1), (31, 2): (1, 0, 1), (37, 2): (2, 0, 1),
    (41, 2): (3, 0, 1), (43, 2): (1, 0, 1), (47, 2): (1, 0, 1),
    (53, 2): (2, 0, 1), (59, 2): (1, 0, 1), (61, 2): (2, 0, 1),
}

# (p, m, n): code of the image of the generator y of F_{p^m} in F_{p^n}
EMBEDDING_GENERATORS = {
    (2, 2, 4): 6, (2, 2, 6): 58, (2, 3, 6): 14, (3, 2, 4): 42,
}


def _poly_mul_mod_p(a, b, p):
    """Schoolbook product of coefficient lists mod p."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_mod(a, m, p):
    """Remainder of the coefficient list a by the monic list m, mod p."""
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm:
        c = a[-1] % p
        if c:
            off = len(a) - 1 - dm
            for j in range(dm):
                a[off + j] = (a[off + j] - c * m[j]) % p
        a.pop()
    return a


def pol3(text):
    return parse_pol(F3, text)


class TestFiniteField:
    def test_cached_identity(self):
        assert finite_field(3) is finite_field(3, 1)
        assert finite_field(3, 2) is F9

    def test_prime_field_ops(self):
        assert F3.add(2, 2) == 1
        assert F3.mul(2, 2) == 1
        assert F3.inv(2) == 2

    def test_extension_embedding(self):
        # F_3 -> F_9 is the same for every root choice; the others pin the
        # least root of the subfield's defining polynomial
        for p, m, n in [(3, 1, 2)] + list(EMBEDDING_GENERATORS):
            sub, big = finite_field(p, m), finite_field(p, n)
            emb = big.embedding(sub)
            assert emb[:p] == list(range(p))
            if m > 1:
                assert emb[p] == EMBEDDING_GENERATORS[p, m, n]
            for a in sub.elements():
                for b in sub.elements():
                    assert emb[sub.add(a, b)] == big.add(emb[a], emb[b])
                    assert emb[sub.mul(a, b)] == big.mul(emb[a], emb[b])

    @given(st.integers(0, 8), st.integers(0, 8))
    def test_f9_commutative(self, a, b):
        assert F9.mul(a, b) == F9.mul(b, a)
        assert F9.add(a, b) == F9.add(b, a)

    @pytest.mark.parametrize("p, n", [(4093, 1), (2, 11)])
    def test_fields_whose_tables_do_not_fit_are_refused(self, p, n):
        # order x order tables: F_4093 would need about 1 GB
        with pytest.raises(Unsupported, match="F_%d " % p ** n):
            finite_field(p, n)

    def test_units_order(self):
        units = list(F9.units())
        assert len(units) == 8
        for x in units:
            assert F9.pow(x, 8) == 1

    def test_defining_polynomials_are_pinned(self):
        assert len(DEFINING_POLYNOMIALS) == 40
        for (p, n), want in DEFINING_POLYNOMIALS.items():
            assert tuple(_min_irreducible(p, n)) == want, (p, n)
        assert finite_field(3, 2).modulus == DEFINING_POLYNOMIALS[3, 2][:-1]

    @pytest.mark.parametrize("p, n", [(2, 2), (2, 3), (2, 4), (3, 2),
                                      (3, 3), (5, 2), (7, 2)])
    def test_mul_table_matches_pol_arithmetic(self, p, n):
        # the product of codes a, b is a*b mod the defining polynomial,
        # computed here over F_p[y] on integer lists, not with Pol (which
        # builds the table)
        field = finite_field(p, n)
        for a in field.elements():
            for b in field.elements():
                prod = _poly_mul_mod_p(field.digits[a], field.digits[b], p)
                rem = _poly_mod(prod, field.modulus + (1,), p)
                assert field.mul(a, b) == sum(d * p ** i for i, d in enumerate(rem))


class TestPol:
    def test_parse_roundtrip(self):
        p = pol3("t^2+2*t+1")
        assert p.format() == "t^2+2*t+1"
        assert p.degree == 2

    def test_divmod(self):
        a, b = pol3("t^3+t+1"), pol3("t+2")
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=5),
           st.lists(st.integers(0, 2), min_size=1, max_size=5))
    def test_mul_degree(self, xs, ys):
        a = Pol.from_int_coeffs(F3, xs)
        b = Pol.from_int_coeffs(F3, ys)
        if a and b:
            assert (a * b).degree == a.degree + b.degree

    def test_gcd_xgcd(self):
        a, b = pol3("t^2+1"), pol3("t^2+t+2")
        g, s, t = a.xgcd(b)
        assert s * a + t * b == g
        assert g == a.gcd(b).monic()

    def test_frobenius_power(self):
        p = pol3("t+1")
        assert p.frob_power(1) == p ** 3

    def test_negative_power_raises(self):
        # e >>= 1 keeps -1 at -1, so without the check this never ends
        with pytest.raises(Unsupported):
            Pol.x(F3) ** -1

    def test_eval_in_extension(self):
        p = pol3("t^2+1")
        emb = F9.embedding(F3)
        roots = p.roots_in(F9)
        assert len(roots) == 2
        for r in roots:
            assert p.eval_in(F9, r, emb) == 0

    def test_irreducibility(self):
        assert is_irreducible(pol3("t^2+1"))
        assert not is_irreducible(pol3("t^2+2"))  # = (t-1)(t+1) over F_3
        assert is_irreducible(parse_pol(F5, "t^2+2"))

    def test_irreducible_monics_count(self):
        # 3 linear + 3 quadratic irreducible monics over F_3
        assert len(irreducible_monics(F3, 2)) == 6

    def test_enumerations(self):
        assert len(list(monics_of_degree(F3, 2))) == 9
        assert len(list(monics_up_to_degree(F3, 2))) == 13  # incl. degree 0
        assert len(list(polys_below_degree(F3, 2))) == 9
        # code order, first coefficient fastest: it decides the defining
        # polynomials, residue_point's Q and the order of units
        assert [f.c for f in monics_of_degree(F3, 2)][:6] == [
            (0, 0, 1), (1, 0, 1), (2, 0, 1), (0, 1, 1), (1, 1, 1), (2, 1, 1)]
        assert [f.c for f in polys_below_degree(F4, 2)][:7] == [
            (), (1,), (2,), (3,), (0, 1), (1, 1), (2, 1)]

    def test_factor_squarefree(self):
        n = pol3("t") * pol3("t+1")
        fac = factor_squarefree_monic(n)
        assert sorted(p.format() for p in fac) == ["t", "t+1"]

    @pytest.mark.parametrize("field, top", [(F3, 5), (F4, 4), (F5, 3),
                                            (F9, 3)],
                             ids=["q3", "q4", "q5", "q9"])
    def test_factor_squarefree_every_monic(self, field, top):
        # factors are found by trial division alone: they must still be
        # distinct irreducibles multiplying back to f, and a square factor
        # must raise
        squares = [g * g for g in irreducible_monics(field, top // 2)]
        for f in monics_up_to_degree(field, top):
            if any(not f % s for s in squares):
                with pytest.raises(NotSquareFree):
                    factor_squarefree_monic(f)
                continue
            fac = factor_squarefree_monic(f)
            assert all(is_irreducible(g) for g in fac)
            assert len({g.c for g in fac}) == len(fac)
            prod = Pol.one(field)
            for g in fac:
                prod = prod * g
            assert prod == f

    @pytest.mark.parametrize("field", [F3, F4, F9], ids=["q3", "q4", "q9"])
    def test_product_properties_up_to_200_coefficients(self, field):
        rng = random.Random(field.order)

        def rand_pol(length):
            coeffs = [rng.randrange(field.order) for _ in range(length - 1)]
            return Pol(field, coeffs + [rng.randrange(1, field.order)])

        for la, lb in [(1, 1), (1, 200), (4, 5), (17, 16), (24, 23),
                       (64, 64), (128, 128), (200, 137), (200, 200)]:
            a, b, c = rand_pol(la), rand_pol(lb), rand_pol(lb)
            ab = a * b
            assert ab.degree == a.degree + b.degree
            assert ab // b == a
            assert not ab % b
            assert ab == b * a
            assert a * (b + c) == ab + a * c


def _fresh_interpreter(code):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)


class TestImportOrder:
    # field.py builds its defining polynomials with poly.py, so poly.py
    # must not import field.py back; each module has to load on its own
    def test_poly_alone(self):
        done = _fresh_interpreter("import drinfeld.algebra.poly")
        assert done.returncode == 0, done.stderr

    def test_field_alone(self):
        done = _fresh_interpreter(
            "from drinfeld.algebra.field import finite_field\n"
            "print(finite_field(3, 2).modulus)")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "(1, 0)"


def _branch_add(a, b):
    """RF.__add__ with the branches it had as the coefficient type: the
    oracle for the one formula that replaced it."""
    if a.den.is_one() and b.den.is_one():
        return RF(a.num + b.num, None, reduce=False)
    if a.den == b.den:
        return RF(a.num + b.num, a.den)
    return RF(a.num * b.den + b.num * a.den, a.den * b.den)


def _branch_mul(a, b):
    """RF.__mul__ with its polynomial branch and cross-cancellation."""
    if a.den.is_one() and b.den.is_one():
        return RF(a.num * b.num, None, reduce=False)
    if not a.num or not b.num:
        return RF.zero(a.field)
    n1, d2 = a.num, b.den
    n2, d1 = b.num, a.den
    if not d2.is_one():
        g = n1.gcd(d2)
        if g.degree > 0:
            n1, d2 = n1 // g, d2 // g
    if not d1.is_one():
        g = n2.gcd(d1)
        if g.degree > 0:
            n2, d1 = n2 // g, d1 // g
    num = n1 * n2
    den = d1 * d2
    if not den.is_monic():
        lcinv = den.field.inv(den.leading())
        num, den = num.scale(lcinv), den.scale(lcinv)
    return RF(num, den, reduce=False)


def _fractions(field):
    """Fractions whose numerators and denominators are products of t, t+1
    and an irreducible quadratic, times a random polynomial (numerator) or
    unit (denominator), then reduced; so zero, denominator 1, equal
    denominators, coprime denominators and shared factors all come up."""
    irreducibles = irreducible_monics(field, 2)
    pool = irreducibles[:2] + irreducibles[field.order:field.order + 1]
    one = Pol.one(field)
    products = st.lists(st.sampled_from(pool), max_size=3).map(
        lambda fs: functools.reduce(Pol.__mul__, fs, one))
    coeffs = st.lists(st.integers(0, field.order - 1), min_size=1,
                      max_size=3)
    unit = st.integers(1, field.order - 1)
    return st.builds(
        lambda c, f, d, u: RF(Pol(field, c) * f, d.scale(u)),
        coeffs, products, products, unit)


def _parts(rf):
    return rf.num.c, rf.den.c


class TestRF:
    def test_reduction(self):
        num, den = pol3("t^2+2*t"), pol3("t")
        rf = RF(num, den)
        assert rf.is_pol()
        assert rf.num == pol3("t+2")

    def test_inverse(self):
        rf = RF(pol3("t+1"), pol3("t^2+1"))
        assert (rf * rf.inverse()) == RF.one(F3)

    @pytest.mark.parametrize("a, b", [
        (("0", "1"), ("t+1", "t^2+1")),       # zero
        (("t^2+2", "1"), ("2*t+1", "1")),     # denominator 1
        (("t", "1"), ("1", "t+1")),           # one denominator 1
        (("1", "t^2+t"), ("t+2", "t^2+t")),   # equal; the sum cancels t
        (("t", "t+1"), ("2", "t+1")),         # equal, nothing cancels
        (("1", "t"), ("1", "t+1")),           # coprime
        (("1", "t^2+t"), ("1", "t^2+2*t")),   # sharing t
        (("t", "t+1"), ("t+1", "t^2+1")),     # cross-cancel in the product
    ], ids=["zero", "den-1", "one-den-1", "equal-cancel", "equal",
            "coprime", "shared", "cross-cancel"])
    def test_named_cases_match_the_branches(self, a, b):
        a, b = RF(pol3(a[0]), pol3(a[1])), RF(pol3(b[0]), pol3(b[1]))
        for x, y in ((a, b), (b, a)):
            assert _parts(x + y) == _parts(_branch_add(x, y))
            assert _parts(x * y) == _parts(_branch_mul(x, y))

    @given(data=st.data())
    @settings(max_examples=300)
    def test_add_mul_match_the_branches(self, data):
        field = data.draw(st.sampled_from([F3, F4]))
        a, b = data.draw(_fractions(field)), data.draw(_fractions(field))
        assert _parts(a + b) == _parts(_branch_add(a, b))
        assert _parts(a * b) == _parts(_branch_mul(a, b))

    @given(data=st.data())
    @settings(max_examples=200)
    def test_sub_and_inverse_round_trip(self, data):
        field = data.draw(st.sampled_from([F3, F4]))
        a, b = data.draw(_fractions(field)), data.draw(_fractions(field))
        assert _parts((a - b) + b) == _parts(a)
        assert _parts(a - a) == _parts(RF.zero(field))
        if a:
            assert _parts(a.inverse().inverse()) == _parts(a)
            assert _parts(a * a.inverse()) == _parts(RF.one(field))
        else:
            with pytest.raises(ZeroDivisionError):
                a.inverse()

    @given(data=st.data())
    @settings(max_examples=200)
    def test_add_mul_distribute(self, data):
        field = data.draw(st.sampled_from([F3, F4]))
        a, b, c = (data.draw(_fractions(field)) for _ in range(3))
        assert (a + b) * c == a * c + b * c


class TestQuotientRing:
    def setup_method(self):
        # F_3(theta)[x] / (x^2 + theta): a quadratic torsion-style quotient
        rel = [pol3("t"), Pol.zero(F3), Pol.one(F3)]
        self.ring = QuotientRing(F3, [("l", rel)])

    def test_generator_relation(self):
        lam = self.ring.gen(0)
        assert lam * lam == self.ring.from_pol(pol3("2*t"))

    def test_invert_unit(self):
        # only constants invert: lambda + 1 is a unit of the fraction
        # field, but its inverse has a denominator
        x = self.ring.from_const(2)
        assert x * x.invert() == self.ring.one
        with pytest.raises(Unsupported, match=r"not \(1\) \+ \(1\)\*l$"):
            (self.ring.gen(0) + self.ring.one).invert()

    def test_invert_zero_divisor_rejected(self):
        # x^2 - 1 = (x-1)(x+1) gives zero divisors
        minus_one = Pol.const(F3, 2)
        rel = [minus_one, Pol.zero(F3), Pol.one(F3)]
        ring = QuotientRing(F3, [("x", rel)])
        bad = ring.gen(0) + ring.one  # maps to (2, 0), not invertible
        with pytest.raises(Unsupported):
            bad.invert()
        with pytest.raises(NotInvertible):
            ring.zero.invert()

    def test_negative_power(self):
        x = self.ring.from_const(2)
        assert x ** -2 == (x * x).invert() == self.ring.one
        with pytest.raises(Unsupported):
            self.ring.gen(0) ** -2

    def test_exponent_free(self):
        lam = self.ring.gen(0)
        assert not lam.exponent_free(0)
        assert self.ring.one.exponent_free(0)


class TestLucasBinomial:
    @given(st.integers(0, 40), st.integers(0, 40))
    @settings(max_examples=60)
    def test_matches_integers_mod_p(self, n, k):
        for p in (3, 5):
            assert lucas_binomial(n, k, p) == math.comb(n, k) % p

    @given(st.integers(1, 25), st.integers(0, 25))
    @settings(max_examples=60)
    def test_negative_reflection(self, n, k):
        # binom(-n, k) = (-1)^k binom(n+k-1, k)
        for p in (3, 5):
            want = ((-1) ** k * math.comb(n + k - 1, k)) % p
            assert lucas_binomial(-n, k, p) == want

    def test_vanishing_from_digits(self):
        # q=5: C(1, 22) = 0 since a base-5 digit of 22 exceeds that of 1
        assert lucas_binomial(1, 22, 5) == 0
