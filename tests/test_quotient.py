"""Packed quotient-ring elements against an RF-coordinate reference.

The reference keeps one RF per coordinate, multiplies by schoolbook over
exponent vectors and folds exponents >= deg Phi_i with the relations; it
exists only here, to check the packed arithmetic of QuotientRing/REl
exactly, for q = 3, 4, 5, 9 and one and two generators, on integral
elements: the only kind there is.  The fast paths of the series layer over
these rings (division, squares) are checked against the operations they
replace.
"""

import random
import re
from fractions import Fraction as Q

import pytest

from drinfeld.algebra import (Pol, QuotientRing, RF, REl, finite_field,
                              parse_pol, quotient, row_echelon)
from drinfeld.carlitz import TorsionContext
from drinfeld.errors import DrinfeldError, NotInvertible, Unsupported
from drinfeld.series import UExpansion, u_of_az

from residue_oracle import first_reduced
from series_oracle import repeated_product

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
                        ext[e2] = (ext.get(e2, zero)
                                   - RF.from_pol(rel[t]) * c)
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


def from_coords(ring, coords):
    """The element with the given RF coordinates, which must be
    polynomials: an element has no denominator."""
    assert all(c.is_pol() for c in coords)
    return REl(ring, ring._pack([c.num for c in coords]))


def random_coords(ring, rng, nonzero=6, length=4):
    """RF coordinates: a few random polynomials of degree < length."""
    big = ring.field
    coords = [RF.zero(big)] * ring.total
    for idx in rng.sample(range(ring.total), min(nonzero, ring.total)):
        coords[idx] = RF.from_pol(Pol(big, [
            rng.randrange(big.order)
            for _ in range(rng.randrange(1, length + 1))]))
    return coords


def elements(ring, seed, **shape):
    """Three (packed, reference) pairs."""
    rng = random.Random(seed)
    out = []
    for _ in range(3):
        coords = random_coords(ring, rng, **shape)
        out.append((from_coords(ring, coords), coords))
    return out


def test_round_trip_and_hash(ring):
    for x, coords in elements(ring, 1):
        assert x.rf_coords() == coords
        y = from_coords(ring, x.rf_coords())
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
        assert (x - x) == ring.zero == x + (-x)
        assert ((x + b) - b) == x


def test_zero_operand_sums_match_dot(ring):
    # x + 0, 0 + x, x - 0 and 0 - x skip the arithmetic; each must equal
    # the dot it replaces and the reference
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
    rf = RF.from_pol(Pol(big, (1, 2 % big.p, 1)))
    for x, cx in elements(ring, 7):
        assert (x * from_coords(ring, [rf])).rf_coords() == [
            s * rf for s in cx]


def test_invert_matches_reference(ring):
    # every nonzero constant of the field inverts, against the reference
    # product; any other element's inverse has a denominator (or does not
    # exist), which no element carries: Unsupported, naming the element
    one = ring.one.rf_coords()
    for code in ring.field.units():
        x = ring.from_const(code)
        inv = x.invert()
        assert ref_mul(ring, x.rf_coords(), inv.rf_coords()) == one
        assert x * inv == ring.one
    for x, _ in elements(ring, 9, nonzero=2, length=2):
        with pytest.raises(Unsupported, match=re.escape(x.format())):
            x.invert()
    with pytest.raises(NotInvertible):
        ring.zero.invert()


def test_invert_prime_field_constants(ring):
    # answered from the field table, against the RF inverse
    big = ring.field
    for c in range(1, big.p):
        x = ring.from_const(c)
        inv = x.invert()
        assert inv == from_coords(ring, [x.scalar_part().inverse()])
        assert inv.num < big.p
        assert x * inv == ring.one


def basis_element(ring, j):
    return from_coords(ring, [RF.one(ring.field) if i == j
                              else RF.zero(ring.field)
                              for i in range(ring.total)])


def old_rf_invert(x):
    """The Gauss-Jordan solve over RF that the ring ran to invert an
    element before elements lost their denominator: reduced form, then the
    right-hand side is the inverse's RF coordinates."""
    ring = x.ring
    n = ring.total
    cols = [(x * basis_element(ring, j)).rf_coords() for j in range(n)]
    M = [[cols[j][i] for j in range(n)] for i in range(n)]
    rhs = [RF.one(ring.field)] + [RF.zero(ring.field)] * (n - 1)
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col]), None)
        if piv is None:
            raise NotInvertible("zero divisor")
        M[col], M[piv] = M[piv], M[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        pinv = M[col][col].inverse()
        M[col] = [c * pinv for c in M[col]]
        rhs[col] = rhs[col] * pinv
        for row in range(n):
            if row != col and M[row][col]:
                f = M[row][col]
                M[row] = [a - f * b for a, b in zip(M[row], M[col])]
                rhs[row] = rhs[row] - f * rhs[col]
    return rhs


@pytest.mark.parametrize("seed", [9, 21, 33])
def test_invert_matches_gauss_jordan(ring, seed):
    # invert agrees with the Gauss-Jordan solve where the solve's inverse
    # is a constant, and raises a typed error everywhere else: the
    # non-scalar elements here are units with a non-constant inverse
    # (whose product with x the reference checks) or zero divisors
    checked = 0
    for code in ring.field.units():
        x = ring.from_const(code)
        assert x.invert().rf_coords() == old_rf_invert(x)
    for x, cx in elements(ring, seed, nonzero=2, length=2):
        if x.is_scalar():
            continue
        try:
            want = old_rf_invert(x)
        except NotInvertible:
            with pytest.raises(Unsupported):
                x.invert()
            continue
        assert ref_mul(ring, cx, want) == ring.one.rf_coords()
        with pytest.raises(Unsupported):
            x.invert()
        checked += 1
    assert checked


def test_invert_zero_divisor_matches_gauss_jordan():
    # F_3(theta)[x] / (x^2 - 1): x + 1 is a zero divisor, which the solve
    # finds and invert refuses with a typed error; x is its own inverse,
    # which the solve finds and invert refuses too, as it is no constant
    F = finite_field(3)
    ring = QuotientRing(F, [("x", [Pol.const(F, 2), Pol.zero(F),
                                   Pol.one(F)])])
    x = ring.gen(0)
    for bad in (x + ring.one, x - ring.one):
        with pytest.raises(NotInvertible):
            old_rf_invert(bad)
        with pytest.raises(DrinfeldError):
            bad.invert()
    assert old_rf_invert(x) == x.rf_coords()
    for unit in (x, x + ring.from_pol(Pol.x(F))):
        assert old_rf_invert(unit)
        with pytest.raises(Unsupported):
            unit.invert()


def test_row_echelon_pivots_and_form():
    # over Q: pivots are the first nonzero column of each remaining row,
    # pivot entries become 1 and everything below a pivot is cleared
    rows = [[Q(0), Q(2), Q(4), Q(1)],
            [Q(0), Q(1), Q(2), Q(3)],
            [Q(0), Q(3), Q(6), Q(4)],
            [Q(0), Q(0), Q(0), Q(0)]]
    assert row_echelon(rows, lambda a: 1 / a) == [1, 3]
    assert rows[0] == [0, 1, 2, Q(1, 2)] and rows[1] == [0, 0, 0, 1]
    assert rows[2] == rows[3] == [0, 0, 0, 0]
    assert row_echelon([], lambda a: 1 / a) == []
    square = [[Q(2), Q(1)], [Q(1), Q(1)]]
    assert row_echelon(square, lambda a: 1 / a) == [0, 1]


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
            assert mixed == from_coords(ring, want)
        assert ring.dot([(k, k)]).rf_coords() == [ck * ck] + zero[1:]


def test_many_constant_operands_stay_reduced(ring):
    # every slot of x is p-1, and so is every slot of x*theta above the
    # lowest row: pass the number of slot sums a byte holds, with and
    # without a general pair after the constant ones
    big = ring.field
    cx = worst_case(ring, 3)
    x = from_coords(ring, cx)
    theta = RF.from_pol(Pol.x(big))
    shifted = [s * theta for s in cx]
    cap = 255 // (big.p - 1)
    for k, ck in constants(ring)[1:]:
        for m in (cap - 1, cap, cap + 1, 2 * cap + 1):
            times_m = ck * RF.from_pol(Pol.const(big, big.scalar(m)))
            linear = [s * times_m for s in cx]
            assert ring.dot([(k, x)] * m).rf_coords() == linear
            got = ring.dot([(k, x)] * m + [(x, ring.from_pol(theta.num))])
            assert got.rf_coords() == ref_add(linear, shifted)


# -- exponent-free operands in dot (the scalar lane) ---------------------------

def scalars(ring, seed, length=9):
    """Three (packed, reference) exponent-free elements: a random
    polynomial at exponent zero, every other coordinate zero."""
    rng = random.Random(seed)
    big = ring.field
    out = []
    for _ in range(3):
        digits = [rng.randrange(big.order)
                  for _ in range(rng.randrange(1, length))]
        top = Pol(big, digits + [rng.randrange(1, big.order)])
        coords = [RF.from_pol(top)] + [RF.zero(big)] * (ring.total - 1)
        out.append((from_coords(ring, coords), coords))
    return out


def test_scalar_products_match_reference(ring):
    # scalar x torsion in both orders and scalar x scalar; the lane builds
    # no column cache, so a fresh operand still has none afterwards
    zs = scalars(ring, 12)
    xs = [(x, cx) for x, cx in elements(ring, 13) if not x.is_scalar()]
    assert xs and all(s.is_scalar() for s, _ in zs)
    for s, cs in zs:
        for x, cx in xs + zs:
            want = ref_mul(ring, cs, cx)
            assert (s * x).rf_coords() == want
            assert (x * s).rf_coords() == want
    assert all(s._cols is None for s, _ in zs)


def test_mixed_dot_matches_reference(ring):
    # lane, general and constant pairs in one dot, in every position
    (s, cs), (s2, cs2), _ = scalars(ring, 14)
    (a, ca), (b, cb), _ = elements(ring, 15)
    k, c = constants(ring)[-1]
    ck = [c] + [RF.zero(ring.field)] * (ring.total - 1)
    pairs = [((s, cs), (a, ca)), ((a, ca), (b, cb)), ((k, ck), (a, ca)),
             ((b, cb), (s2, cs2)), ((s, cs), (s2, cs2)), ((s2, cs2), (k, ck))]
    for order in (pairs, pairs[::-1], pairs[1:] + pairs[:1]):
        got = ring.dot([(x, y) for (x, _), (y, _) in order])
        want = [RF.zero(ring.field)] * ring.total
        for (_, cx), (_, cy) in order:
            want = ref_add(want, ref_mul(ring, cx, cy))
        assert got.rf_coords() == want
        assert got == from_coords(ring, want)


@pytest.mark.parametrize("field", [F3, F4, F5, F9], ids=["q3", "q4", "q5",
                                                        "q9"])
def test_ring_of_total_one_is_all_scalars(field):
    # relation x + (theta + c): total = 1, so every element is
    # exponent-free and every product goes through the lane
    rel = [Pol(field, (field.order - 1, 1)), Pol.one(field)]
    ring = QuotientRing(field, [("l", rel)])
    assert ring.total == 1
    xs = [(x, cx) for seed in (16, 17) for x, cx in scalars(ring, seed)]
    assert all(x.is_scalar() for x, _ in xs)
    for a, ca in xs:
        for b, cb in xs[:3]:
            assert (a * b).rf_coords() == ref_mul(ring, ca, cb)
    got = ring.dot([(a, b) for (a, _), (b, _) in zip(xs, xs[1:])])
    want = [RF.zero(field)]
    for (_, ca), (_, cb) in zip(xs, xs[1:]):
        want = ref_add(want, ref_mul(ring, ca, cb))
    assert got.rf_coords() == want
    assert all(x._cols is None for x, _ in xs)
    assert ring.gen(0).is_scalar()
    assert ring.gen(0).rf_coords() == [RF.from_pol(-rel[0])]


# Per field, the most rows at which all-(order-1) operands still fit a
# one-byte lane slot: 255 // ((p-1)^2 * the most that y^(i+j) put on one
# digit), which is 1 at n = 1, 2 for F_4 (y^2 = y+1) and 3 for F_9 (y^2 = -1).
LANE_EDGES = [(F3, 63), (F4, 85), (F5, 15), (F9, 21)]


def lane_operands(field, rows):
    """An all-(order-1) scalar and torsion element with rows theta-rows,
    with their references, in a dim-2 ring."""
    ring = QuotientRing(field, [("l", [Pol.x(field), Pol.zero(field),
                                       Pol.one(field)])])
    top = RF.from_pol(Pol(field, (field.order - 1,) * rows))
    cs = [top, RF.zero(field)]
    cx = worst_case(ring, rows)
    return ring, (from_coords(ring, cs), cs), (from_coords(ring, cx), cx)


@pytest.mark.parametrize("field, edge", LANE_EDGES,
                         ids=["q3", "q4", "q5", "q9"])
def test_lane_width_moves_at_the_edge(monkeypatch, field, edge):
    # the lane's slot holds the exact worst case at the edge in one byte
    # and moves to two bytes one row past it; both equal the reference
    widths = []
    mod_slots = QuotientRing._mod_slots

    def spy(self, raw, w):
        widths.append(w)
        return mod_slots(self, raw, w)
    monkeypatch.setattr(QuotientRing, "_mod_slots", spy)
    for rows, width in ((edge, 1), (edge + 1, 2)):
        ring, (s, cs), (x, cx) = lane_operands(field, rows)
        for a, ca, b, cb in ((s, cs, s, cs), (s, cs, x, cx),
                             (x, cx, s, cs)):
            widths.clear()
            assert (a * b).rf_coords() == ref_mul(ring, ca, cb)
            assert widths == [width]
    # the rows of a dot's lane pairs add up: two halves of the edge + 1
    ring, (s, cs), _ = lane_operands(field, (edge + 1) // 2)
    _, (s2, cs2), _ = lane_operands(field, edge + 1 - (edge + 1) // 2)
    widths.clear()
    got = ring.dot([(s, s), (s2, s2)])
    assert got.rf_coords() == ref_add(ref_mul(ring, cs, cs),
                                      ref_mul(ring, cs2, cs2))
    assert widths == [2]


def test_lane_width_past_max_slot_bytes_raises(monkeypatch):
    monkeypatch.setattr(quotient, "MAX_SLOT_BYTES", 1)
    ring, (s, cs), (x, cx) = lane_operands(F3, 63)
    assert (s * x).rf_coords() == ref_mul(ring, cs, cx)
    ring, (s, _), (x, _) = lane_operands(F3, 64)
    for a, b in ((s, s), (s, x), (x, s)):
        with pytest.raises(Unsupported):
            a * b


# -- lane pairs with an operand in digit 0 alone (n > 1) ----------------------

F25 = finite_field(5, 2)


def digit0_ring(field):
    """A dim-3 ring whose relation has coefficients outside F_p."""
    rel = [Pol(field, (field.order - 1, 1)), Pol(field, (0, field.p + 1)),
           Pol.zero(field), Pol.one(field)]
    return QuotientRing(field, [("l", rel)])


def lane_operand(ring, rng, scalar, digit0):
    """(packed, reference): random coordinates of theta-degree 5, at
    exponent zero alone if scalar, with codes < p (digit 0 alone) if
    digit0, else with a code >= p at the top of each coordinate."""
    big = ring.field
    p, order = big.p, big.order
    coords = [RF.zero(big)] * ring.total
    for idx in [0] if scalar else range(ring.total):
        top = rng.randrange(1, p) if digit0 else rng.randrange(p, order)
        coords[idx] = RF.from_pol(Pol(big, [
            rng.randrange(p if digit0 else order) for _ in range(5)] + [top]))
    return from_coords(ring, coords), coords


def is_digit0(x):
    return all(c.num.c == tuple(v % x.ring.field.p for v in c.num.c)
               for c in x.rf_coords())


@pytest.mark.parametrize("field", [F4, F9, F25], ids=["q4", "q9", "q25"])
def test_digit0_lane_pairs_match_reference(monkeypatch, field):
    # a lane pair with an operand in digit 0 alone is one product of the
    # whole numerators, split into no digit planes; a pair of two full
    # operands still splits; every kind equals the reference, alone, in
    # both orders, and all kinds in one dot
    ring = digit0_ring(field)
    rng = random.Random(41)
    s0, x0, s1, x1 = (lane_operand(ring, rng, scalar, digit0)
                      for digit0 in (True, False) for scalar in (True, False))
    assert [x.is_scalar() for x, _ in (s0, x0, s1, x1)] == [True, False] * 2
    assert [is_digit0(x) for x, _ in (s0, x0, s1, x1)] == [True] * 2 + [
        False] * 2
    split = []
    planes = QuotientRing._planes
    monkeypatch.setattr(QuotientRing, "_planes", lambda self, num: (
        split.append(num) or planes(self, num)))
    kinds = {"digit0*digit0": [(s0, x0), (s0, s0)],
             "digit0*full": [(s0, x1), (s1, x0), (s0, s1)],
             "full*full": [(s1, x1), (s1, s1)]}
    for kind, pairs in kinds.items():
        for (a, ca), (b, cb) in pairs:
            for (u, cu), (v, cv) in (((a, ca), (b, cb)), ((b, cb), (a, ca))):
                del split[:]
                assert ring.dot([(u, v)]).rf_coords() == ref_mul(ring, cu, cv)
                assert bool(split) == (kind == "full*full"), kind
    pairs = [pair for group in kinds.values() for pair in group]
    want = [RF.zero(field)] * ring.total
    for (_, ca), (_, cb) in pairs:
        want = ref_add(want, ref_mul(ring, ca, cb))
    assert ring.dot([(a, b) for (a, _), (b, _) in pairs]).rf_coords() == want


def test_u_of_az_and_lifted_polys_are_digit0():
    # in an F_(q^n) ring over a prime q, u(az)'s coefficients and lifted
    # theta-polynomials have codes in F_q, so their lane pairs are products;
    # a value scaled by a constant outside F_q (a character value) is not
    ctx = TorsionContext(parse_pol(F3, "t^2+1"), ext_degree=2)
    th = Pol.x(F3)
    coeffs = [c for c in u_of_az(ctx, th * th + th, 40).coeffs if c]
    lifted = ctx.lift_poly(th ** 5 + Pol.one(F3))
    assert coeffs and all(is_digit0(x) for x in coeffs + [lifted])
    assert not is_digit0(lifted.scale_const(3))


@pytest.mark.parametrize("field, edge", [(F4, 85), (F9, 21), (F25, 3)],
                         ids=["q4", "q9", "q25"])
def test_digit0_lane_width_moves_at_the_edge(monkeypatch, field, edge):
    # digit-0 pairs take the lane's slot width: one byte at the edge of
    # LANE_EDGES, two one row past it, and exact at both
    widths = []
    mod_slots = QuotientRing._mod_slots

    def spy(self, raw, w):
        widths.append(w)
        return mod_slots(self, raw, w)
    monkeypatch.setattr(QuotientRing, "_mod_slots", spy)
    p = field.p
    for rows, width in ((edge, 1), (edge + 1, 2)):
        ring, (s, cs), (x, cx) = lane_operands(field, rows)
        low = RF.from_pol(Pol(field, (p - 1,) * rows))
        cs0, cx0 = [low, RF.zero(field)], [low, low]
        s0, x0 = from_coords(ring, cs0), from_coords(ring, cx0)
        for a, ca, b, cb in ((s0, cs0, s0, cs0), (s0, cs0, x, cx),
                             (x0, cx0, s, cs), (s, cs, s0, cs0)):
            widths.clear()
            assert (a * b).rf_coords() == ref_mul(ring, ca, cb)
            assert widths == [width]


# -- sums of field-constant multiples (combine) --------------------------------

def old_scaled(ring, x, code):
    """The numerator x times the field element code, one element at a time:
    the routine QuotientRing.combine replaced.  Digit j of a coefficient
    becomes sum_i m[j][i] * digit i, where column i of m is code * y^i; for
    a prime-field code m is diagonal and one table does it."""
    field, times = ring.field, ring._times
    n, p = field.n, field.p
    if code < p:
        return ring._translate(x, times[code])
    size = ((x.bit_length() + 7) >> 3) + n - 1
    raw = x.to_bytes(size - size % n, "little")
    cols = [field.digits[field.mul(code, p ** i)] for i in range(n)]
    out = bytearray(len(raw))
    for j in range(n):
        acc = sum(int.from_bytes(raw[i::n].translate(times[col[j]]),
                                 "little") for i, col in enumerate(cols))
        out[j::n] = ring._translate(acc, times[1]).to_bytes(len(raw) // n,
                                                            "little")
    return int.from_bytes(out, "little")


def ref_combine(ring, coords, row):
    """sum_k row[k] * coords[k] over RF coordinates."""
    big = ring.field
    out = [RF.zero(big)] * ring.total
    for cx, code in zip(coords, row):
        c = RF.from_pol(Pol.const(big, code))
        out = ref_add(out, [s * c for s in cx])
    return out


def code_rows(big, count, rng):
    """Rows of codes: random, zero, prime-field and non-prime ones."""
    rows = [[rng.randrange(big.order) for _ in range(count)]
            for _ in range(4)]
    rows.append([0] * count)
    rows.append([k % big.p for k in range(count)])
    rows.append([big.order - 1 - k % big.order for k in range(count)])
    return rows


def test_combine_matches_reference(ring):
    pairs = elements(ring, 21) + elements(ring, 22, nonzero=3, length=7)
    rng = random.Random(23)
    for group in (pairs, pairs[:1], pairs[2:]):
        xs, coords = [x for x, _ in group], [cx for _, cx in group]
        rows = code_rows(ring.field, len(xs), rng)
        got = ring.combine(xs, rows)
        assert len(got) == len(rows)
        for row, g in zip(rows, got):
            want = ref_combine(ring, coords, row)
            assert g.rf_coords() == want
            assert g == from_coords(ring, want)
            assert g.coords == from_coords(ring, want).coords


def test_combine_matches_old_scaled(ring):
    # every code of the big field, one element at a time and as one row
    big = ring.field
    for x, cx in elements(ring, 24):
        for code in big.elements():
            scaled = x.scale_const(code)
            assert ring.combine([x], [[code]])[0].num == old_scaled(
                ring, x.num, code)
            if code:
                assert scaled.num == old_scaled(ring, x.num, code)
            else:
                assert scaled == ring.zero
    xs = [x for x, _ in elements(ring, 25)[:1]] * 2
    row = list(range(1, len(xs) + 1))
    want = ring.zero
    for x, code in zip(xs, row):
        want = want + REl(ring, old_scaled(ring, x.num, code))
    assert ring.combine(xs, [row]) == [want]


def test_combine_empty_rows(ring):
    xs = [x for x, _ in elements(ring, 26)]
    assert ring.combine([], [[]]) == [ring.zero]
    assert ring.combine([], [[], []]) == [ring.zero, ring.zero]
    assert ring.combine(xs, []) == []
    assert ring.combine(xs, [[0] * len(xs)]) == [ring.zero]
    assert ring.combine([ring.zero] * 3, [[1, 2 % ring.field.order, 0]]) == [
        ring.zero]


def test_combine_reduces_mid_sum(ring):
    # every slot of x is p-1, and digit j of c*x sums up to n translates
    # per element: pass the number of addends one pass mod p allows, so the
    # kernel must reduce before the end of a row
    big = ring.field
    cx = worst_case(ring, 3)
    x = from_coords(ring, cx)
    cap = 255 // (big.p - 1)
    codes = sorted({1, big.p - 1, big.order - 1, big.p % big.order})
    for m in (cap // big.n - 1, cap // big.n + 1, cap - 1, cap + 1, 70):
        for code in codes:
            times_m = RF.from_pol(Pol.const(big, big.mul(code,
                                                         big.scalar(m))))
            got = ring.combine([x] * m, [[code] * m, [0] * m])
            assert got[0].rf_coords() == [s * times_m for s in cx]
            assert got[1] == ring.zero


def test_combine_code_cache_is_bounded(ring):
    # one entry per field element used, however often it is used
    big = ring.field
    xs = [x for x, _ in elements(ring, 27)]
    for _ in range(3):
        ring.combine(xs, [[c] * len(xs) for c in big.elements()])
    assert set(ring._codes) == set(big.elements())
    assert len(ring._codes) == big.order


@pytest.mark.parametrize("p", [113, 127])
def test_combine_large_characteristic(p):
    # 255 // (p-1) = 2: a pass mod p after every addend
    f = finite_field(p)
    rng = random.Random(p)
    rel = [Pol(f, [rng.randrange(p) for _ in range(3)])
           for _ in range(2)] + [Pol.one(f)]
    ring = quotient.QuotientRing(f, [("l", rel)])
    coords = [[RF.from_pol(Pol(f, [p - 1 - rng.randrange(3)
                                   for _ in range(rows)])) for _ in range(2)]
              for rows in (1, 4, 9)]
    xs = [from_coords(ring, c) for c in coords]
    rows = [[p - 1] * 3, [1, 0, p - 2], [rng.randrange(p) for _ in range(3)]]
    for row, got in zip(rows, ring.combine(xs, rows)):
        assert got.rf_coords() == ref_combine(ring, coords, row)


@pytest.mark.parametrize("modulus, ext", [
    (parse_pol(F3, "t^2+1"), 2), (_t(F4, 2, 1, 1), 2),
    (parse_pol(F3, "t^2+t"), 1)], ids=["q3-one", "q4-one", "q3-two"])
def test_residue_combine_matches_tables(modulus, ext):
    red = first_reduced(TorsionContext(modulus, ext_degree=ext))
    ring = red.ring
    T, emb = ring.field, ring.emb
    rng = random.Random(28)
    xs = [ring.elems[rng.randrange(T.order)] for _ in range(6)]
    rows = code_rows(red.big, len(xs), rng)
    for row, got in zip(rows, ring.combine(xs, rows)):
        want = 0
        for x, code in zip(xs, row):
            want = T.add_table[want][T.mul_table[x.code][emb[code]]]
        assert got is ring.elems[want]
    assert ring.combine([], [[]]) == [ring.zero]
    assert ring.combine(xs, []) == []


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
    """A series with constant term head, then a mix of general elements,
    zeros and the constants 1 and p-1."""
    ring = ctx.ring
    (a, _), (b, _), (c, _) = elements(ring, seed)
    minus_one = ring.from_const(ring.field.p - 1)
    return UExpansion(ctx, [head, a, ring.zero, ring.one, b, minus_one, c, a])


def unit_heads(ring):
    """Units a series can divide by: one, p-1 and the largest code of the
    field, outside the prime field when q is not prime (only constants
    invert in the ring)."""
    big = ring.field
    return [ring.one, ring.from_const(big.p - 1),
            ring.from_const(big.order - 1)]


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
        one = UExpansion.const(ctx, ring.one, S.prec)
        assert repeated_product(S, 3, one) == S * copy * copy


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
    x = from_coords(ring, c)
    got = ring.dot([(x, x), (x, x)])
    assert ring.slot_width(0) > 1
    want = ref_mul(ring, c, c)
    assert got.rf_coords() == ref_add(want, want)


def test_slot_bound_raises_instead_of_wrapping(monkeypatch):
    rel = [parse_pol(F3, "t"), Pol.zero(F3), Pol.one(F3)]
    ring = quotient.QuotientRing(F3, [("l", rel)])
    x = from_coords(ring, worst_case(ring, 30))
    monkeypatch.setattr(quotient, "MAX_SLOT_BYTES", 1)
    with pytest.raises(Unsupported):
        x * x
    monkeypatch.undo()
    assert (x * x).rf_coords() == ref_mul(ring, x.rf_coords(), x.rf_coords())
    with pytest.raises(Unsupported):
        ring.slot_width(256 ** quotient.MAX_SLOT_BYTES)


def test_large_characteristic_is_rejected():
    f = finite_field(131)
    rel = [Pol.x(f), Pol.one(f)]
    with pytest.raises(Unsupported):
        quotient.QuotientRing(f, [("l", rel)])


@pytest.mark.parametrize("p, d, width", [(113, 2, 4), (127, 2, 4),
                                         (113, 3, 5)],
                         ids=["p113-w4", "p127-w4", "p113-w5"])
def test_large_characteristic_products_match_reference(p, d, width):
    # 255 // (p-1) = 2 bytes of a w-byte slot fit before _mod_slots must
    # reduce its partial sum, so every product here runs that branch
    f = finite_field(p)
    rng = random.Random(p * d)
    rel = [Pol(f, [rng.randrange(p) for _ in range(3)])
           for _ in range(d)] + [Pol.one(f)]
    ring = quotient.QuotientRing(f, [("l", rel)])
    xs = []
    for rows in (2, 5, 9, 16):
        c = [RF.from_pol(Pol(f, [rng.randrange(p) for _ in range(rows)]))
             for _ in range(d)]
        xs.append((from_coords(ring, c), c))
    got = ring.dot([(a, b) for (a, _), (b, _) in zip(xs, xs[1:])])
    assert ring.slot_width(0) == width
    want = [RF.zero(f)] * d
    for (_, ca), (_, cb) in zip(xs, xs[1:]):
        want = ref_add(want, ref_mul(ring, ca, cb))
    assert got.rf_coords() == want
    for a, ca in xs:
        for b, cb in xs:
            assert (a * b).rf_coords() == ref_mul(ring, ca, cb)
