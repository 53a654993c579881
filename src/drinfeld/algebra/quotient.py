"""Quotient rings F_{q^D}(theta)[x_1,..,x_r] / (Phi_1(x_1),..,Phi_r(x_r)).

Each relation is monic in its own generator with coefficients in
F_{q^D}[theta], so reduction is canonical: every element has a unique
coordinate vector indexed by multidegrees below (deg Phi_1, ..., deg Phi_r).
With r >= 2 the ring may have zero divisors.  Only constants invert.

Packed layout.  An element is one integer num holding every coordinate,
each a polynomial in theta.  Byte slot

    (k * total + idx) * n + j

of num holds digit j (over F_p, in the power basis of field.py) of the
theta^k coefficient of coordinate idx, where n is the degree of the field
over F_p.  theta is the slowest index, so the layout does not depend on any
degree bound.

Canonical form.  Every slot is < p, so == and hash compare num.  Elements
are integral: a denominator is one monic Pol beside a value's numerator,
as series.UExpansion.den is for a series.

Arithmetic.  Sums, negation and prime-field scaling act slot by slot: an
integer operation, then one bytes.translate pass mod p; a sum or difference
with a zero operand is the other operand (negated for 0 - x).  A product
sum_i a_i*b_i (QuotientRing.dot) splits each numerator into columns, one
packed theta-polynomial per (coordinate, digit) with slots of w bytes.  It
multiplies column pairs as integers (Kronecker substitution in theta) and
folds exponents >= deg Phi_i back with the relation coefficients, which
enter as nonnegative integer multipliers (-c mod p).  It folds field digits
>= n with the field modulus in the same way and reduces mod p once.  A pair
with a prime-field constant operand c (num < p) is no product: it
adds the other operand translated slot-wise by v -> c*v mod p, and the sum
of these translates is added to the folded product, at most 255 // (p-1)
numerators with slots < p at a time.  Zero operands are dropped, so a dot
made only of such pairs splits no columns and folds nothing.  Nor is
combine, sum_k c_k*x_k by big-field codes (and scale_const by c not in
F_p): digit j of c*x is sum_i m*(digit i), m = digit j of c*y^i; a digit
plane is translated once per m and call, shifted to digit j and summed as
above, and the ring keeps the (i, m, j) of each code.  A pair with an
exponent-free operand s (no slot at row offset >= n: one AND with a kept
mask) goes through the scalar lane, theta a Kronecker variable across all
coordinates: for digit planes x_i, s_j (digit j moved to digit 0; at n = 1
the numerators), x_i*s_j is one integer product of whole numerators, with
no columns and no fold.  P_e = sum_(i+j=e) x_i*s_j enters digit t times
digit t of y^e, and the lane is reduced once, beside the translates.

Slot-width bound.  Nothing is reduced mod p before the end, so a slot of a
column stays below

    (sum over the product pairs of min(rows_a, rows_b)) * total * n
        * (p-1)^2 * gain

where rows counts theta-degrees and gain is the worst-case growth of the
folding, computed once per ring.  The lane folds nothing: its slots stay
below (sum over its pairs of min(rows_x, rows_s)) * (p-1)^2 * gain_y, with
gain_y the most the y^(i+j), i, j < n, put on one digit (1 at n = 1, so at
p = 3 one byte holds 63 rows), and it takes its own width per call.  The
width w is the least number of bytes that holds the bound; a bound wider
than MAX_SLOT_BYTES raises Unsupported instead of wrapping.
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
                 "_codes", "_masks", "_exp_row", "_low_row", "_ypow",
                 "_lane_gain")
    # new each time: a ring holding an element would be a reference cycle
    zero = property(lambda self: REl(self, 0))
    one = property(lambda self: REl(self, 1))

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
        # rows of the masks of exponent-free slots (offset >= n) and of
        # digit 0; the lane's y^e, e <= 2n-2, as (digit, multiplier) terms
        self._masks = {}
        self._exp_row = bytes(n) + b"\xff" * (self._tn - n)
        self._low_row = b"\xff" + bytes(n - 1)
        ydig = [field.digits[field.pow(p, e)] for e in range(2 * n - 1)]
        self._ypow = [[(t, m) for t, m in enumerate(d) if m] for d in ydig]
        self._lane_gain = (p - 1) ** 2 * max(
            sum(ydig[i + j][t] for i in range(n) for j in range(n))
            for t in range(n))

    # -- constructors for elements --

    def from_pol(self, p):
        return REl(self, self._pack([p]))

    def from_const(self, code):
        return self.from_pol(Pol.const(self.field, code))

    def gen(self, i):
        """Generator i, reduced by its relation: -c for a relation x + c."""
        if self.dims[i] == 1:
            return self.from_pol(-self.relations[i][0])
        return REl(self, 1 << (8 * self._strides[i] * self.field.n))

    def __repr__(self):
        return "QuotientRing(%r[t]; %s)" % (self.field, ", ".join(self.gen_names))

    # -- the product --

    def dot(self, pairs):
        """sum of a*b over a sequence of (a, b) pairs, reduced once.  A pair
        with a prime-field constant operand adds a slot-wise translate of
        the other operand instead of a product, and a pair with an
        exponent-free operand goes through the scalar lane."""
        p = self.field.p
        times = self._times
        rowbits = 8 * self._tn
        scalar = self._scalar
        rows = lane_rows = 0
        general = []
        lane = []
        terms = []
        for a, b in pairs:
            if b.num < p:
                a, b = b, a
            if a.num >= p:
                r = min(a.num.bit_length(), b.num.bit_length()) // rowbits + 1
                if scalar(a.num):
                    a, b = b, a
                if scalar(b.num):
                    lane.append((a.num, b.num))
                    lane_rows += r
                else:
                    general.append((a, b))
                    rows += r
            elif a.num and b.num:
                terms.append(b.num if a.num == 1
                             else self._translate(b.num, times[a.num]))
        if lane:
            terms.append(self._lane(lane, lane_rows))
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
        return REl(self, self._slot_sum(terms))

    def dot_once(self, pairs):
        """dot over a sequence of pairs, leaving each second operand's column
        cache as it was, for operands read once (a power, a memo's element)."""
        held = [(b, b._cols) for _, b in pairs]
        out = self.dot(pairs)
        for b, cols in held:
            b._cols = cols
        return out

    def power_step(self, prev, x):
        """prev * x, leaving prev's column cache as it was: in a chain of
        powers each power's columns are read once, to build the next, and
        only x's, read at every step, are kept."""
        return self.dot_once(((x, prev),))

    def _repeat(self, pattern, num):
        """pattern repeated over at least the bytes of num: kept per
        pattern, and doubled when num outgrows it."""
        bits, mask = self._masks.get(pattern, (-1, 0))
        if num.bit_length() > bits:
            reps = 2 * (num.bit_length() // (8 * len(pattern)) + 1)
            bits, mask = self._masks[pattern] = (
                8 * len(pattern) * reps, int.from_bytes(pattern * reps,
                                                        "little"))
        return mask

    def _scalar(self, num):
        """True if num is exponent-free: no slot at row offset >= n."""
        return not num & self._repeat(self._exp_row, num)

    def _planes(self, num):
        """The n digit planes of num: plane j holds digit j of every slot,
        moved to digit 0."""
        n = self.field.n
        if n == 1:
            return (num,)
        low = self._repeat(self._low_row, num)
        return [num >> 8 * j & low for j in range(n)]

    def _lane(self, lane, rows):
        """sum x*s over (x, s) numerators with s exponent-free: the scalar
        lane of the module docstring."""
        w = _slot_bytes(rows * self._lane_gain)
        if self.field.n == 1:
            out = 0
            for x, s in lane:
                out += _widen(x, w) * _widen(s, w)
        else:
            planes = self._planes
            prods = [0] * len(self._ypow)
            for x, s in lane:
                xs = planes(x)
                if w > 1:
                    xs = [_widen(xi, w) for xi in xs]
                for j, sj in enumerate(planes(s)):
                    if sj:
                        sj = _widen(sj, w)
                        for e, xi in enumerate(xs, j):
                            prods[e] += xi * sj
            out = 0
            for pe, terms in zip(prods, self._ypow):
                for t, m in terms:
                    out += m * pe << 8 * w * t
        size = (out.bit_length() + 8 * w - 1) // (8 * w) * w
        return int.from_bytes(
            self._mod_slots(out.to_bytes(size, "little"), w), "little")

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
        self._w = max(self._w, _slot_bytes(bound))
        return self._w

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
        if w == 1:
            return raw.translate(times[1])
        acc = count = 0
        for b in range(w):
            if count == 255 // (p - 1):
                acc = self._translate(acc, times[1])
                count = 1
            acc += int.from_bytes(raw[b::w].translate(times[pow(256, b, p)]),
                                  "little")
            count += 1
        return acc.to_bytes(len(raw) // w, "little").translate(times[1])

    # -- slot-wise helpers --

    def _translate(self, x, table):
        """x with every byte slot mapped through table."""
        return int.from_bytes(
            x.to_bytes((x.bit_length() + 7) >> 3, "little").translate(table),
            "little")

    def combine(self, elems, rows):
        """[sum_k row[k] * elems[k] for row in rows], row[k] big codes."""
        p, n, codes = self.field.p, self.field.n, self._codes
        planes = [self._planes(e.num) for e in elems]
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
            out.append(REl(self, self._slot_sum(terms)))
        return out

    # -- coordinates as polynomials --

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

    def divide_content(self, elems):
        """elems divided by the gcd in F[theta] of all their coordinates."""
        coords = [self._unpack(x.num) for x in elems]
        g = reduce(Pol.gcd, (c for cs in coords for c in cs if c),
                   Pol.zero(self.field))
        if g.degree < 1:
            return elems
        return [REl(self, self._pack([c // g for c in cs])) for cs in coords]


def _slot_bytes(bound):
    """The bytes a slot needs for values up to bound; a bound wider than
    MAX_SLOT_BYTES raises Unsupported instead of wrapping."""
    w = (bound.bit_length() + 7) // 8
    if w > MAX_SLOT_BYTES:
        raise Unsupported("slot bound %d needs %d bytes, more than %d"
                          % (bound, w, MAX_SLOT_BYTES))
    return w


def _widen(x, w):
    """x with each byte moved to the low byte of a w-byte slot."""
    if w == 1:
        return x
    raw = x.to_bytes((x.bit_length() + 7) >> 3, "little")
    wide = bytearray(len(raw) * w)
    wide[::w] = raw
    return int.from_bytes(wide, "little")


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
    """Element of a QuotientRing: an integral packed numerator (see the
    module docstring for the layout and the canonical form)."""

    __slots__ = ("ring", "num", "_cols")

    def __init__(self, ring, num):
        self.ring = ring
        self.num = num
        self._cols = None

    coords = property(lambda self: self.num)  # equal iff the elements are

    def __bool__(self):
        return self.num != 0

    def __eq__(self, other):
        return (isinstance(other, REl) and self.ring is other.ring
                and self.num == other.num)

    def __hash__(self):
        return hash((id(self.ring), self.num))

    def __add__(self, other):
        ring = self.ring
        if not (self.num and other.num):
            return self if self.num else other
        return REl(ring, ring._translate(self.num + other.num,
                                         ring._times[1]))

    def __neg__(self):
        ring = self.ring
        return REl(ring, ring._translate(self.num, ring._times[-1]))

    def __sub__(self, other):
        return self + (-other)

    def scale_const(self, code):
        ring = self.ring
        if code < 2:
            return self if code else ring.zero
        if code < ring.field.p:
            return REl(ring, ring._translate(self.num, ring._times[code]))
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
                cols.append((keys[c],
                             _widen(int.from_bytes(col, "little"), w)))
        self._cols = (w, cols)
        return cols

    def is_scalar(self):
        return self.ring._scalar(self.num)

    def __pow__(self, e):
        if e < 0:
            return self.invert() ** (-e)
        return power(self, e, self.ring.one)

    def invert(self):
        """The inverse of a nonzero constant; others would need a den."""
        ring = self.ring
        if not self:
            raise NotInvertible("zero element")
        if self.num < ring.field.p:  # a prime-field constant: one table read
            return REl(ring, ring.field.inv(self.num))
        coords = ring._unpack(self.num)
        if coords[0].degree or any(coords[1:]):
            raise Unsupported("only constants invert in the ring, not %s"
                              % self.format())
        return ring.from_const(ring.field.inv(coords[0].c[0]))

    def exponent_free(self, i):
        """True if no monomial involves generator i."""
        exps = self.ring._col_exps
        return all(exps[k][i] == 0 for k, _ in self._columns(self.ring._w))

    def rf_coords(self):
        """The coordinates as RFs over 1."""
        return [RF.from_pol(c) for c in self.ring._unpack(self.num)]

    def scalar_part(self):
        """The exponent-zero coordinate (an RF over 1)."""
        return RF.from_pol(self.ring._unpack(self.num)[0])

    def terms(self):
        """(exponents, coefficient as a scalar element) for every nonzero
        coordinate."""
        ring = self.ring
        return [(ring._exps[idx], ring.from_pol(c))
                for idx, c in enumerate(ring._unpack(self.num)) if c]

    def format(self, symbol="t", den=None):
        """Each coordinate over den (a monic Pol, or None), reduced."""
        ring = self.ring
        parts = []
        for idx, c in enumerate(ring._unpack(self.num)):
            if not c:
                continue
            mono = "*".join(
                (name if e == 1 else "%s^%d" % (name, e))
                for name, e in zip(ring.gen_names, ring._exps[idx]) if e)
            cs = "(%s)" % RF(c, den).format(symbol)
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
