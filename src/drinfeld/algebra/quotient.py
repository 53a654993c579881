"""Quotient rings F_{q^D}(theta)[x_1,..,x_r] / (Phi_1(x_1),..,Phi_r(x_r)).

Each relation is monic in its own generator with coefficients in
F_{q^D}[theta], so reduction is canonical: every element has a unique
coordinate vector indexed by multidegrees below (deg Phi_1, ..., deg Phi_r).
With r >= 2 the ring may have zero divisors; inversion detects them and
raises NotInvertible.

Packed layout.  An element is num/den: den is a monic polynomial in theta
and num is one integer holding every coordinate.  Byte slot

    (k * total + idx) * n + j

of num holds digit j (over F_p, in the power basis of field.py) of the
theta^k coefficient of coordinate idx, where n is the degree of the field
over F_p.  theta is the slowest index, so the layout does not depend on any
degree bound.

Canonical form.  Every slot is < p, gcd(content(num), den) = 1 where the
content is the gcd of the coordinates, and den is monic; zero has den = 1.
So == and hash compare (num, den) directly.  The denominator is 1 except on
the paths through invert().

Arithmetic.  Sums, negation and prime-field scaling act slot by slot: an
integer operation, then one bytes.translate pass mod p; a sum or difference
with a zero operand is the other operand (negated for 0 - x).  A product
sum_i a_i*b_i (QuotientRing.dot) splits each numerator into columns, one
packed theta-polynomial per (coordinate, digit) with slots of w bytes.  It
multiplies column pairs as integers (Kronecker substitution in theta) and
folds exponents >= deg Phi_i back with the relation coefficients, which
enter as nonnegative integer multipliers (-c mod p).  It folds field digits
>= n with the field modulus in the same way and reduces mod p once.  A pair
with a prime-field constant operand c (den 1, num < p) is no product: it
adds the other operand translated slot-wise by v -> c*v mod p, and the sum
of these translates is added to the folded product, at most 255 // (p-1)
numerators with slots < p at a time.  Zero operands are dropped, so a dot
made only of such pairs splits no columns and folds nothing.  Nor is
combine, sum_k c_k*x_k by big-field codes (and scale_const by c not in
F_p): digit j of c*x is sum_i m*(digit i), m = digit j of c*y^i; a digit
plane is translated once per m and call, shifted to digit j and summed as
above, and the ring keeps the (i, m, j) of each code.

Slot-width bound.  Nothing is reduced mod p before the end, so a slot of a
column stays below

    (sum over the product pairs of min(rows_a, rows_b)) * total * n
        * (p-1)^2 * gain

where rows counts theta-degrees and gain is the worst-case growth of the
folding, computed once per ring.  The width w is the least number of bytes
that holds this bound; a bound wider than MAX_SLOT_BYTES raises Unsupported
instead of wrapping.
"""

from functools import reduce

from ..errors import NotInvertible, Unsupported
from .poly import Pol, power
from .ratfunc import RF

MAX_SLOT_BYTES = 8


class QuotientRing:
    __slots__ = ("field", "gen_names", "relations", "dims", "total",
                 "_strides", "_exps", "_tn", "_col_key", "_col_exps",
                 "_final", "_folds", "_plans", "_pair_gain", "_w", "_times",
                 "_codes", "_unit")
    # new each time: a ring holding an element would be a reference cycle
    zero = property(lambda self: REl(self, 0, self._unit))
    one = property(lambda self: REl(self, 1, self._unit))

    def __init__(self, field, generators):
        """generators: sequence of (name, relation) with relation the list
        of Pol coefficients in theta of a monic polynomial, low degree
        first."""
        p, n = field.p, field.n
        if p >= 128:
            raise Unsupported("packed quotient rings need p < 128, not %d" % p)
        self.field = field
        self.gen_names = tuple(name for name, _ in generators)
        self.relations = tuple(tuple(rel) for _, rel in generators)
        self.dims = tuple(len(rel) - 1 for rel in self.relations)
        for rel, d in zip(self.relations, self.dims):
            if d < 1 or rel[-1] != Pol.one(field):
                raise ValueError("relations must be monic of positive degree")
        total = 1
        strides = []
        for d in self.dims:
            strides.append(total)
            total *= d
        self.total = total
        self._strides = tuple(strides)
        self._exps = []
        for idx in range(total):
            e = []
            k = idx
            for d in self.dims:
                e.append(k % d)
                k //= d
            self._exps.append(tuple(e))

        # Column keys: the exponent of x_i has room 2*d_i - 1 (products of
        # reduced monomials), the field digit is the slowest part.
        ext_strides = []
        ext = 1
        for d in self.dims:
            ext_strides.append(ext)
            ext *= 2 * d - 1
        self._tn = total * n
        self._col_key = [
            sum(e * s for e, s in zip(self._exps[idx], ext_strides)) + ext * j
            for idx in range(total) for j in range(n)]
        self._col_exps = {key: self._exps[c // n]
                          for c, key in enumerate(self._col_key)}
        self._final = {key: c for c, key in enumerate(self._col_key)}

        # Folds: (stride, room, degree, [(key delta, theta-digits, exponent
        # shift, digit shift)]) for each generator, then the field digits.
        folds = []
        for rel, d, s in zip(self.relations, self.dims, ext_strides):
            terms = []
            for t in range(d):
                coeff = -rel[t]
                for b in range(n):
                    digs = [field.digits[c][b] for c in coeff.c]
                    if any(digs):
                        terms.append(((d - t) * s - b * ext, digs, t - d, b))
            folds.append((s, 2 * d - 1, d, terms))
        room_y = 2 * n - 1
        gain = 1
        for s, room, d, terms in folds:
            g, extra = _fold_growth(room, d, terms, room_y - 1)
            gain *= g
            room_y = extra + 1
        if n > 1:
            terms = [((n - t) * ext, [(-c) % p], t - n, 0)
                     for t, c in enumerate(field.modulus) if c % p]
            folds.append((ext, 1 << 62, n, terms))
            gain *= _fold_growth(room_y, n, terms, 0)[0]
        self._folds = folds
        self._plans = {}
        self._pair_gain = total * n * (p - 1) ** 2 * gain
        self._w = 1

        # _times[c] maps a byte v to c*v mod p: [1] reduces, [p-1] negates
        self._times = [bytes(c * v % p for v in range(256)) for c in range(p)]
        self._codes = {}
        self._unit = Pol.one(field)

    # -- constructors for elements --

    def from_rf_coords(self, coords):
        """The element with the given RF coordinates."""
        lcm = reduce(Pol.lcm, (c.den for c in coords), self._unit)
        num = self._pack([c.num * (lcm // c.den) for c in coords])
        return REl(self, num, self._unit if lcm.is_one() else lcm)

    def from_pol(self, p):
        return REl(self, self._pack([p]), self._unit)

    def from_const(self, code):
        return self.from_pol(Pol.const(self.field, code))

    def gen(self, i):
        return REl(self, 1 << (8 * self._strides[i] * self.field.n),
                   self._unit)

    def __repr__(self):
        return "QuotientRing(%r[t]; %s)" % (self.field, ", ".join(self.gen_names))

    # -- the product --

    def dot(self, pairs):
        """sum of a*b over a sequence of (a, b) pairs, reduced once.  A pair
        with a prime-field constant operand adds a slot-wise translate of
        the other operand instead of a product."""
        unit = self._unit
        p = self.field.p
        times = self._times
        rowbits = 8 * self._tn
        rows = 0
        general = []
        terms = []
        for a, b in pairs:
            if a.den is not unit or b.den is not unit:
                return self._dot_fractions(pairs)
            if b.num < p:
                a, b = b, a
            if a.num >= p:
                general.append((a, b))
                rows += (min(a.num.bit_length(), b.num.bit_length())
                         // rowbits + 1)
            elif a.num and b.num:
                terms.append(b.num if a.num == 1
                             else self._translate(b.num, times[a.num]))
        if general:
            w = self.slot_width(rows * self._pair_gain)
            acc = {}
            get = acc.get
            for a, b in general:
                cb = b._columns(w)
                for ka, va in a._columns(w):
                    for kb, vb in cb:
                        k = ka + kb
                        acc[k] = get(k, 0) + va * vb
            terms.append(self._reduce(acc, w))
        return REl(self, self._slot_sum(terms), unit)

    def _slot_sum(self, terms):
        """The slot-wise sum mod p of numerators with slots < p: up to
        255 // (p-1) of them are added before one pass mod p."""
        if len(terms) == 1:
            return terms[0]
        step = 255 // (self.field.p - 1) - 1
        reduce = self._times[1]
        acc = 0
        for i in range(0, len(terms), step):
            acc = self._translate(acc + sum(terms[i:i + step]), reduce)
        return acc

    def slot_width(self, bound):
        """Bytes per column slot for values up to bound; never shrinks."""
        w = self._w
        if bound >> (8 * w):
            w = (bound.bit_length() + 7) // 8
            if w > MAX_SLOT_BYTES:
                raise Unsupported("slot bound %d needs %d bytes, more than %d"
                                  % (bound, w, MAX_SLOT_BYTES))
            self._w = w
        return w

    def _plan(self, w):
        """The folds with their theta-digits packed at slot width w."""
        plan = self._plans.get(w)
        if plan is None:
            plan = [(s, room, d,
                     [(delta, sum(c << (8 * w * k)
                                  for k, c in enumerate(digs)), dt)
                      for delta, digs, dt, _ in terms])
                    for s, room, d, terms in self._folds]
            self._plans[w] = plan
        return plan

    def _reduce(self, acc, w):
        """Fold a {column key: packed column} product into a numerator."""
        for s, room, d, terms in self._plan(w):
            buckets = {}
            for k in acc:
                e = k // s % room
                if e >= d:
                    buckets.setdefault(e, []).append(k)
            while buckets:
                m = max(buckets)
                for k in buckets.pop(m):
                    v = acc.pop(k)
                    for delta, mult, dt in terms:
                        tk = k - delta
                        if tk in acc:
                            acc[tk] += v * mult
                        else:
                            acc[tk] = v * mult
                            if m + dt >= d:
                                buckets.setdefault(m + dt, []).append(tk)
        if not acc:
            return 0
        final = self._final
        tn = self._tn
        rows = max(v.bit_length() for v in acc.values()) // (8 * w) + 1
        step = 8 * w * rows
        big = 0
        for k, v in acc.items():
            big |= v << (final[k] * step)
        flat = self._mod_slots(big.to_bytes(tn * rows * w, "little"), w)
        out = bytearray(rows * tn)
        for k in acc:
            c = final[k]
            out[c::tn] = flat[c * rows:(c + 1) * rows]
        return int.from_bytes(out, "little")

    def _mod_slots(self, raw, w):
        """w-byte little-endian slots reduced mod p, one byte each: byte b
        of a slot counts 256^b mod p times, and partial sums stay < 256."""
        p = self.field.p
        times = self._times
        acc = count = 0
        for b in range(w):
            if count == 255 // (p - 1):
                acc = self._translate(acc, times[1])
                count = 1
            acc += int.from_bytes(raw[b::w].translate(times[pow(256, b, p)]),
                                  "little")
            count += 1
        return acc.to_bytes(len(raw) // w, "little").translate(times[1])

    def _dot_fractions(self, pairs):
        """dot over a common denominator: the lcm of the pair denominators."""
        unit = self._unit
        dens = [a.den * b.den for a, b in pairs]
        lcm = reduce(Pol.lcm, dens, unit)
        integral = []
        for (a, b), d in zip(pairs, dens):
            a = REl(self, a.num, unit)
            f = lcm // d
            if not f.is_one():
                a = a * self.from_pol(f)
            integral.append((a, REl(self, b.num, unit)))
        return self._normalized(self.dot(integral).num, lcm)

    # -- slot-wise helpers --

    def _translate(self, x, table):
        """x with every byte slot mapped through table."""
        return int.from_bytes(
            x.to_bytes((x.bit_length() + 7) >> 3, "little").translate(table),
            "little")

    def combine(self, elems, rows):
        """[sum_k row[k] * elems[k] for row in rows], row[k] big codes."""
        if any(e.den is not self._unit for e in elems):
            return [self.dot([(e, self.from_const(c)) for e, c in
                              zip(elems, row)]) for row in rows]
        p, n, codes = self.field.p, self.field.n, self._codes
        top = max((e.num for e in elems), default=0).bit_length() // (8 * n)
        low = int.from_bytes((b"\xff" + bytes(n - 1)) * (top + 1), "little")
        planes = [[e.num >> 8 * i & low for i in range(n)] for e in elems]
        memo, out = [[None] * (n * p) for _ in elems], []
        for row in rows:
            terms = []
            for k, code in enumerate(row):
                if code not in codes:
                    cols = [self.field.digits[self.field.mul(code, p ** i)]
                            for i in range(n)]
                    codes[code] = [(i * p + col[j], 8 * j) for j in range(n)
                                   for i, col in enumerate(cols) if col[j]]
                for key, shift in codes[code]:
                    if memo[k][key] is None:
                        memo[k][key] = self._translate(planes[k][key // p],
                                                       self._times[key % p])
                    terms.append(memo[k][key] << shift)
            out.append(REl(self, self._slot_sum(terms), self._unit))
        return out

    # -- coordinates as polynomials (the paths with denominators) --

    def _pack(self, pols):
        """Numerator with coordinate idx equal to pols[idx] (missing = 0)."""
        n, tn = self.field.n, self._tn
        digits = self.field.digits
        rows = max((len(c.c) for c in pols), default=0)
        out = bytearray(rows * tn)
        for idx, c in enumerate(pols):
            for j in range(n):
                col = bytes(digits[x][j] for x in c.c)
                start = idx * n + j
                out[start:start + len(col) * tn:tn] = col
        return int.from_bytes(out, "little")

    def _unpack(self, num):
        """The coordinates of a numerator as polynomials in theta."""
        field = self.field
        n, tn, p = field.n, self._tn, field.p
        size = (num.bit_length() + 7) >> 3
        raw = num.to_bytes(size + (-size) % tn, "little")
        out = []
        for idx in range(self.total):
            codes = list(raw[idx * n + n - 1::tn])
            for j in range(n - 2, -1, -1):
                digit = raw[idx * n + j::tn]
                codes = [c * p + d for c, d in zip(codes, digit)]
            out.append(Pol(field, codes))
        return out

    def _normalized(self, num, den):
        """num/den in canonical form (den monic)."""
        if not num or den.is_one():
            return REl(self, num, self._unit)
        coords = self._unpack(num)
        g = den
        for c in coords:
            if c:
                g = g.gcd(c)
                if g.degree == 0:
                    return REl(self, num, den)
        den = den // g
        num = self._pack([c // g for c in coords])
        return REl(self, num, self._unit if den.is_one() else den)


def _fold_growth(room, d, terms, top_digit):
    """(gain, top digit) of folding exponents room-1..d of one variable:
    the worst factor by which a slot can grow, and the highest field digit
    a slot can reach when it starts at most at top_digit."""
    bound = [1] * room
    digit = [top_digit] * room
    for m in range(room - 1, d - 1, -1):
        for _, digs, dt, shift in terms:
            bound[m + dt] += bound[m] * sum(digs)
            digit[m + dt] = max(digit[m + dt], digit[m] + shift)
    return max(bound[:d]), max(digit[:d])


class REl:
    """Element of a QuotientRing: packed numerator over a monic denominator
    (see the module docstring for the layout and the canonical form)."""

    __slots__ = ("ring", "num", "den", "_cols")

    def __init__(self, ring, num, den):
        self.ring = ring
        self.num = num
        self.den = den
        self._cols = None

    @property
    def coords(self):
        """The canonical value (numerator, denominator coefficients):
        hashable, and equal exactly when the elements are equal."""
        return (self.num, self.den.c)

    def __bool__(self):
        return self.num != 0

    def __eq__(self, other):
        return (isinstance(other, REl) and self.ring is other.ring
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((id(self.ring), self.num, self.den.c))

    def __add__(self, other):
        ring = self.ring
        if not (self.num and other.num):
            return self if self.num else other
        if self.den is other.den is ring._unit:
            return REl(ring, ring._translate(self.num + other.num,
                                             ring._times[1]), self.den)
        return ring.dot(((self, ring.one), (other, ring.one)))

    def __neg__(self):
        ring = self.ring
        return REl(ring, ring._translate(self.num, ring._times[-1]), self.den)

    def __sub__(self, other):
        return self + (-other)

    def scale_const(self, code):
        ring = self.ring
        if code < 2:
            return self if code else ring.zero
        if code < ring.field.p:
            return REl(ring, ring._translate(self.num, ring._times[code]),
                       self.den)
        return ring.combine((self,), ((code,),))[0]

    def __mul__(self, other):
        return self.ring.dot(((self, other),))

    def _columns(self, w):
        """[(column key, packed theta-polynomial with w-byte slots)] for
        every nonzero (coordinate, digit) column; cached."""
        cached = self._cols
        if cached is not None and cached[0] == w:
            return cached[1]
        ring = self.ring
        tn = ring._tn
        keys = ring._col_key
        raw = self.num.to_bytes((self.num.bit_length() + 7) >> 3, "little")
        cols = []
        for c in range(min(tn, len(raw))):
            col = raw[c::tn].rstrip(b"\0")
            if col:
                if w > 1:
                    wide = bytearray(len(col) * w)
                    wide[::w] = col
                    col = wide
                cols.append((keys[c], int.from_bytes(col, "little")))
        self._cols = (w, cols)
        return cols

    def is_scalar(self):
        exps = self.ring._col_exps
        return not any(any(exps[k]) for k, _ in self._columns(self.ring._w))

    def __pow__(self, e):
        if e < 0:
            return self.invert() ** (-e)
        return power(self, e, self.ring.one)

    def invert(self):
        ring = self.ring
        if not self:
            raise NotInvertible("zero element")
        if self.den is ring._unit and self.num < ring.field.p:
            return REl(ring, ring.field.inv(self.num), ring._unit)
        if self.is_scalar():
            return ring.from_rf_coords([self.scalar_part().inverse()])
        return _invert(self)

    def exponent_free(self, i):
        """True if no monomial involves generator i."""
        exps = self.ring._col_exps
        return all(exps[k][i] == 0 for k, _ in self._columns(self.ring._w))

    def rf_coords(self):
        """The coordinates as reduced RFs."""
        return [RF(c, self.den) for c in self.ring._unpack(self.num)]

    def scalar_part(self):
        """The exponent-zero coordinate (an RF)."""
        return RF(self.ring._unpack(self.num)[0], self.den)

    def terms(self):
        """(exponents, coefficient as a scalar element) for every nonzero
        coordinate."""
        ring = self.ring
        return [(ring._exps[idx], ring._normalized(ring._pack([c]), self.den))
                for idx, c in enumerate(ring._unpack(self.num)) if c]

    def format(self, symbol="t"):
        ring = self.ring
        parts = []
        for idx, c in enumerate(self.rf_coords()):
            if not c:
                continue
            mono = "*".join(
                (name if e == 1 else "%s^%d" % (name, e))
                for name, e in zip(ring.gen_names, ring._exps[idx]) if e)
            cs = "(%s)" % c.format(symbol)
            parts.append(cs + ("*" + mono if mono else ""))
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return self.format()


def row_echelon(rows, invert):
    """Forward Gaussian elimination of a list of row lists, in place.

    Column by column, the first remaining row with a nonzero entry is
    swapped up and scaled by invert(pivot), and only the rows below it are
    cleared; entries left of the pivot are zero and stay untouched.  Stops
    once every row has a pivot.  Returns the pivot columns, as many as the
    rank.
    """
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        if top == len(rows):
            break
        piv = next((i for i in range(top, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[top], rows[piv] = rows[piv], rows[top]
        inv = invert(rows[top][col])
        tail = [x * inv for x in rows[top][col:]]
        rows[top][col:] = tail
        for row in rows[top + 1:]:
            f = row[col]
            if f:
                row[col:] = [a - f * b if b else a
                             for a, b in zip(row[col:], tail)]
        pivots.append(col)
    return pivots


def _invert(x):
    """Inversion by a linear solve over RF: x * v = 1 for the coordinate
    vector v, by row_echelon on (M | e0) and back substitution."""
    ring = x.ring
    n = ring.total
    fn = ring.field.n
    # columns: x * basis_j
    cols = [(x * REl(ring, 1 << (8 * fn * j), ring._unit)).rf_coords()
            for j in range(n)]
    e0 = [RF.one(ring.field)] + [RF.zero(ring.field)] * (n - 1)
    M = [[c[i] for c in cols] + [e0[i]] for i in range(n)]
    if row_echelon(M, RF.inverse) != list(range(n)):
        raise NotInvertible("zero divisor")
    v = [None] * n
    for i in reversed(range(n)):
        acc = M[i][n]
        for a, b in zip(M[i][i + 1:n], v[i + 1:]):
            if a:
                acc = acc - a * b
        v[i] = acc
    return ring.from_rf_coords(v)
