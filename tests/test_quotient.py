"""Packed quotient-ring elements against an RF-coordinate reference.

The reference keeps one RF per coordinate, multiplies by schoolbook over
exponent vectors and folds exponents >= deg Phi_i with the relations; it
exists only here, to check the packed arithmetic of QuotientRing/REl
exactly, for q = 3, 4, 5, 9, one and two generators, with and without
denominators.  The fast paths of the series layer over these rings
(division, squares) are checked against the operations they replace.
"""

import random

import pytest

from drinfeld.algebra import Pol, RF, finite_field, parse_pol, quotient
from drinfeld.carlitz import TorsionContext
from drinfeld.errors import Unsupported
from drinfeld.series import UExpansion

F3, F4, F5, F9 = (finite_field(3), finite_field(2, 2), finite_field(5),
                  finite_field(3, 2))


def _t(field, *coeffs):
    return Pol(field, coeffs)


# (id, modulus, ext_degree).  q = 4 and q = 9 use primes with a non-prime
# constant term, so the relations carry extension-field coefficients.
CONTEXTS = [
    ("q3-one", parse_pol(F3, "t^2+1"), 2),
    ("q3-two", parse_pol(F3, "t^2+1") * parse_pol(F3, "t"), 1),
    ("q4-one", _t(F4, 2, 1, 1), 2),
    ("q4-two", _t(F4, 0, 1) * _t(F4, 2, 1), 1),
    ("q5-one", parse_pol(F5, "t"), 2),
    ("q5-two", parse_pol(F5, "t") * parse_pol(F5, "t+1"), 1),
    ("q9-one", _t(F9, 3, 1), 1),
    ("q9-two", _t(F9, 0, 1) * _t(F9, 3, 1), 1),
]


@pytest.fixture(params=CONTEXTS, ids=[c[0] for c in CONTEXTS])
def ctx(request):
    _, modulus, ext = request.param
    return TorsionContext(modulus, ext_degree=ext)


@pytest.fixture
def ring(ctx):
    return ctx.ring


def exps_of(ring):
    out = []
    for idx in range(ring.total):
        e = []
        for d in ring.dims:
            e.append(idx % d)
            idx //= d
        out.append(tuple(e))
    return out


def ref_mul(ring, a, b):
    """Schoolbook product of RF coordinate lists, folded by the relations."""
    zero = RF.zero(ring.field)
    exps = exps_of(ring)
    ext = {}
    for ea, ca in zip(exps, a):
        if ca:
            for eb, cb in zip(exps, b):
                if cb:
                    e = tuple(x + y for x, y in zip(ea, eb))
                    ext[e] = ext.get(e, zero) + ca * cb
    for g, (rel, d) in enumerate(zip(ring.relations, ring.dims)):
        for m in range(2 * d - 2, d - 1, -1):
            for e in [e for e in ext if e[g] == m]:
                c = ext.pop(e)
                for t in range(d):
                    if rel[t]:
                        e2 = e[:g] + (m - d + t,) + e[g + 1:]
                        ext[e2] = ext.get(e2, zero) - rel[t] * c
    return [ext.get(e, zero) for e in exps]


def ref_add(a, b):
    return [x + y for x, y in zip(a, b)]


def ref_format(ring, coords, symbol="t"):
    parts = []
    for e, c in zip(exps_of(ring), coords):
        if c:
            mono = "*".join(name if k == 1 else "%s^%d" % (name, k)
                            for name, k in zip(ring.gen_names, e) if k)
            parts.append("(%s)" % c.format(symbol)
                         + ("*" + mono if mono else ""))
    return " + ".join(parts) if parts else "0"


def random_coords(ring, rng, den=None, nonzero=6, length=4):
    """RF coordinates: a few random polynomials of degree < length, over
    den."""
    big = ring.field
    den = den or Pol.one(big)
    coords = [RF.zero(big)] * ring.total
    for idx in rng.sample(range(ring.total), min(nonzero, ring.total)):
        num = Pol(big, [rng.randrange(big.order)
                        for _ in range(rng.randrange(1, length + 1))])
        coords[idx] = RF(num, den)
    return coords


def dens(ring):
    big = ring.field
    return [None, Pol(big, (1, 1)), Pol(big, (2 % big.p, 0, 1))]


def elements(ring, seed, **shape):
    """(packed, reference) pairs: integral and with denominators."""
    rng = random.Random(seed)
    out = []
    for den in dens(ring):
        coords = random_coords(ring, rng, den, **shape)
        out.append((ring.from_rf_coords(coords), coords))
    return out


def test_round_trip_and_hash(ring):
    for x, coords in elements(ring, 1):
        assert x.rf_coords() == coords
        y = ring.from_rf_coords(x.rf_coords())
        assert y == x and hash(y) == hash(x) and y.coords == x.coords
        assert x != x + ring.one


def test_products_match_reference(ring):
    xs = elements(ring, 2)
    for a, ca in xs:
        for b, cb in xs:
            prod = a * b
            assert prod.rf_coords() == ref_mul(ring, ca, cb)
            assert prod == b * a and hash(prod) == hash(b * a)


def test_dot_matches_reference(ring):
    xs, ys = elements(ring, 3), elements(ring, 4)
    got = ring.dot([(a, b) for (a, _), (b, _) in zip(xs, ys)])
    want = [RF.zero(ring.field)] * ring.total
    for (_, ca), (_, cb) in zip(xs, ys):
        want = ref_add(want, ref_mul(ring, ca, cb))
    assert got.rf_coords() == want
    assert ring.dot([]) == ring.zero


def test_sums_match_reference(ring):
    (a, ca), (b, cb), (c, cc) = elements(ring, 5)
    for x, cx in ((a, ca), (b, cb), (c, cc)):
        for y, cy in ((a, ca), (b, cb), (c, cc)):
            assert (x + y).rf_coords() == ref_add(cx, cy)
            assert (x - y).rf_coords() == [s - t for s, t in zip(cx, cy)]
        assert (-x).rf_coords() == [-s for s in cx]
        assert (x - x) == ring.zero and (x + (-x)).den.is_one()
        assert ((x + b) - b) == x


def test_zero_operand_sums_match_dot(ring):
    # x + 0, 0 + x, x - 0 and 0 - x skip the arithmetic; each must equal
    # the dot it replaces and the reference, with and without denominators
    zero, one = ring.zero, ring.one
    for x, cx in elements(ring, 6):
        plus = ring.dot([(x, one), (zero, one)])
        minus = ring.dot([(zero, one), (x, -one)])
        assert plus.rf_coords() == cx
        assert minus.rf_coords() == [-s for s in cx]
        for got, want in ((x + zero, plus), (zero + x, plus),
                          (x - zero, plus), (zero - x, minus)):
            assert got == want and got.coords == want.coords
            assert hash(got) == hash(want)
    assert zero + zero == zero - zero == zero


def test_scale_const_matches_reference(ring):
    big = ring.field
    codes = [0, 1, big.p - 1, big.order - 1]
    codes += [big.p ** j for j in range(1, big.n)]  # y^j, not in F_p
    for x, cx in elements(ring, 6):
        for code in codes:
            c = RF.from_pol(Pol.const(big, code))
            assert x.scale_const(code).rf_coords() == [s * c for s in cx]


def test_scale_rf_matches_reference(ring):
    big = ring.field
    rf = RF(Pol(big, (1, 2 % big.p, 1)), Pol(big, (1, 1)))
    for x, cx in elements(ring, 7):
        assert x.scale_rf(rf).rf_coords() == [s * rf for s in cx]


def test_invert_matches_reference(ring):
    # sparse and of low degree, as the linear solve over RF grows fast; the
    # seed gives units in every context (two generators allow zero
    # divisors, which test_algebra covers)
    one = ring.one.rf_coords()
    for x, cx in elements(ring, 9, nonzero=2, length=2):
        inv = x.invert()
        assert ref_mul(ring, cx, inv.rf_coords()) == one
        assert x * inv == ring.one


def test_invert_prime_field_constants(ring):
    # answered from the field table, against the RF path it bypasses
    big = ring.field
    for c in range(1, big.p):
        x = ring.from_const(c)
        inv = x.invert()
        assert inv == ring.from_rf(x.scalar_part().inverse())
        assert inv.den is ring._unit
        assert x * inv == ring.one


def test_format_matches_reference(ring):
    for x, cx in elements(ring, 9):
        assert x.format() == ref_format(ring, cx)
        assert x.format("s") == ref_format(ring, cx, "s")


def test_scalar_part_and_terms(ring):
    for x, cx in elements(ring, 10):
        assert x.scalar_part() == cx[0]
        assert x.is_scalar() == (not any(cx[1:]))
        rebuilt = ring.zero
        for e, c in x.terms():
            mono = ring.one
            for i, k in enumerate(e):
                mono = mono * ring.gen(i) ** k
            rebuilt = rebuilt + c * mono
        assert rebuilt == x


# -- prime-field constants in dot ---------------------------------------------

def constants(ring):
    """(element, RF) for the prime-field constants 0, 1 and p-1."""
    big = ring.field
    return [(ring.from_const(c), RF.from_pol(Pol.const(big, c)))
            for c in sorted({0, 1, big.p - 1})]


def test_dot_with_constant_operands(ring):
    # a, b integral; c with a denominator
    (a, ca), (b, cb), (c, cc) = elements(ring, 11)
    zero = [RF.zero(ring.field)] * ring.total
    for k, ck in constants(ring):
        for x, cx in ((a, ca), (c, cc)):
            scaled = [s * ck for s in cx]
            assert ring.dot([(k, x)]).rf_coords() == scaled
            assert ring.dot([(x, k)]).rf_coords() == scaled
            assert ring.dot([(k, x), (k, x)]).rf_coords() == ref_add(
                scaled, scaled)
            mixed = ring.dot([(k, x), (a, b), (b, k), (k, k)])
            want = ref_add(ref_add(scaled, ref_mul(ring, ca, cb)),
                           [s * ck for s in cb])
            want[0] = want[0] + ck * ck
            assert mixed.rf_coords() == want
            assert mixed == ring.from_rf_coords(want)
        assert ring.dot([(k, k)]).rf_coords() == [ck * ck] + zero[1:]


def test_many_constant_operands_stay_reduced(ring):
    # every slot of x is p-1, and so is every slot of x*theta above the
    # lowest row: pass the number of slot sums a byte holds, with and
    # without a general pair after the constant ones
    big = ring.field
    cx = worst_case(ring, 3)
    x = ring.from_rf_coords(cx)
    theta = RF.from_pol(Pol.x(big))
    shifted = [s * theta for s in cx]
    cap = 255 // (big.p - 1)
    for k, ck in constants(ring)[1:]:
        for m in (cap - 1, cap, cap + 1, 2 * cap + 1):
            times_m = ck * RF.from_pol(Pol.const(big, big.scalar(m)))
            linear = [s * times_m for s in cx]
            assert ring.dot([(k, x)] * m).rf_coords() == linear
            got = ring.dot([(k, x)] * m + [(x, ring.from_rf(theta))])
            assert got.rf_coords() == ref_add(linear, shifted)


# -- series division and squares over these rings ------------------------------

def old_inverse(D):
    """The series inverse by its own recurrence, as UExpansion.inverse
    computed it before it became one / D."""
    c0inv = D.coeffs[0].invert()
    N = D.prec
    dot = D.ctx.ring.dot
    steps = [(i, -(c0inv * c)) for i, c in enumerate(D.coeffs[:N]) if i and c]
    out = [c0inv]
    for n in range(1, N):
        out.append(dot([(c, out[n - i]) for i, c in steps
                        if i <= n and out[n - i]]))
    return UExpansion(D.ctx, out, N)


def series_of(ctx, seed, head):
    """A series with constant term head, then a mix of general elements
    (integral and with denominators), zeros and the constants 1 and p-1."""
    ring = ctx.ring
    (a, _), (b, _), (c, _) = elements(ring, seed)
    minus_one = ring.from_const(ring.field.p - 1)
    return UExpansion(ctx, [head, a, ring.zero, ring.one, b, minus_one, c, a])


def unit_heads(ring):
    """Units: one, a scalar with a denominator, and a non-scalar element
    (seed 9 gives units in every context, as in test_invert)."""
    big = ring.field
    scalar = ring.from_rf(RF(Pol(big, (2 % big.p, 1)), Pol(big, (1, 1))))
    (unit, _), _, _ = elements(ring, 9, nonzero=2, length=2)
    return [ring.one, scalar, unit]


def test_division_matches_inverse_product(ctx):
    X = series_of(ctx, 13, ctx.ring.zero)
    for head in unit_heads(ctx.ring):
        D = series_of(ctx, 14, head)
        inv = old_inverse(D)
        assert D.inverse() == inv
        quotient = X / D
        assert quotient == X * inv
        assert quotient * D == X


def test_square_matches_product_with_a_copy(ctx):
    ring = ctx.ring
    for seed, head in ((15, ring.zero), (16, ring.one),
                       (17, elements(ring, 18)[2][0])):
        S = series_of(ctx, seed, head)
        copy = UExpansion(ctx, list(S.coeffs))
        want = []
        for n in range(S.prec):
            total = ring.zero
            for i in range(n + 1):
                total = total + S.coeffs[i] * copy.coeffs[n - i]
            want.append(total)
        assert list((S * S).coeffs) == want
        assert S * S == S * copy
        assert S ** 3 == S * copy * copy


# -- the slot-width bound -----------------------------------------------------

def worst_case(ring, rows):
    """Every coordinate of theta-degree rows-1 with every digit p-1."""
    big = ring.field
    top = Pol(big, (big.order - 1,) * rows)
    return [RF.from_pol(top)] * ring.total


@pytest.mark.parametrize("modulus, ext", [
    (parse_pol(F3, "t^2+1") * parse_pol(F3, "t"), 1),
    (_t(F4, 2, 1, 1), 2),
    (parse_pol(F5, "t") * parse_pol(F5, "t+1"), 1),
], ids=["q3-two", "q4-one", "q5-two"])
def test_worst_case_fits_the_chosen_width(modulus, ext):
    # a fresh ring starts at one byte per slot, so the first product runs
    # at exactly the width its bound asks for
    ring = TorsionContext(modulus, ext_degree=ext).ring
    c = worst_case(ring, 12)
    x = ring.from_rf_coords(c)
    got = ring.dot([(x, x), (x, x)])
    assert ring.slot_width(0) > 1
    want = ref_mul(ring, c, c)
    assert got.rf_coords() == ref_add(want, want)


def test_slot_bound_raises_instead_of_wrapping(monkeypatch):
    rel = [RF.from_pol(parse_pol(F3, "t")), RF.zero(F3), RF.one(F3)]
    ring = quotient.QuotientRing(F3, [("l", rel)])
    x = ring.from_rf_coords(worst_case(ring, 30))
    monkeypatch.setattr(quotient, "MAX_SLOT_BYTES", 1)
    with pytest.raises(Unsupported):
        x * x
    monkeypatch.undo()
    assert (x * x).rf_coords() == ref_mul(ring, x.rf_coords(), x.rf_coords())
    with pytest.raises(Unsupported):
        ring.slot_width(256 ** quotient.MAX_SLOT_BYTES)


def test_large_characteristic_is_rejected():
    f = finite_field(131)
    rel = [RF.from_pol(Pol.x(f)), RF.one(f)]
    with pytest.raises(Unsupported):
        quotient.QuotientRing(f, [("l", rel)])
