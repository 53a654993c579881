"""Dense univariate polynomials over a tabulated finite field.

Coefficients are stored low-degree first as a tuple of field element
codes (see field.py); the zero polynomial has an empty tuple.  Products
are schoolbook over the field's tables: the polynomials this library
multiplies have a few dozen coefficients at most, a size at which packing
them into big integers costs more than it saves.
"""

import itertools

from ..errors import NotSquareFree, Unsupported


class Pol:
    """Immutable polynomial over a FiniteField."""

    __slots__ = ("field", "c")

    def __init__(self, field, coeffs):
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        self.field = field
        self.c = tuple(coeffs)

    # -- constructors --

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def x(cls, field):
        return cls(field, (0, 1))

    @classmethod
    def const(cls, field, code):
        return cls(field, (code,))

    @classmethod
    def from_int_coeffs(cls, field, ints):
        """Coefficients given as integers, reduced into the prime field."""
        return cls(field, tuple(field.scalar(k) for k in ints))

    # -- structure --

    @property
    def degree(self):
        return len(self.c) - 1

    def __bool__(self):
        return bool(self.c)

    def is_one(self):
        return self.c == (1,)

    def is_monic(self):
        return bool(self.c) and self.c[-1] == 1

    def leading(self):
        return self.c[-1] if self.c else 0

    def __eq__(self, other):
        return isinstance(other, Pol) and self.field is other.field and self.c == other.c

    def __hash__(self):
        return hash((id(self.field), self.c))

    # -- arithmetic --

    def __add__(self, other):
        f = self.field
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        add = f.add_table
        out = list(a)
        for i, x in enumerate(b):
            out[i] = add[out[i]][x]
        return Pol(f, out)

    def __neg__(self):
        f = self.field
        neg = f.neg_table
        return Pol(f, tuple(neg[x] for x in self.c))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        f = self.field
        a, b = self.c, other.c
        if not a or not b:
            return Pol(f, ())
        mul, add = f.mul_table, f.add_table
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                row = mul[x]
                for j, y in enumerate(b):
                    if y:
                        out[i + j] = add[out[i + j]][row[y]]
        return Pol(f, out)

    def scale(self, code):
        """Multiply by a field element."""
        if code == 0:
            return Pol(self.field, ())
        if code == 1:
            return self
        row = self.field.mul_table[code]
        return Pol(self.field, tuple(row[x] for x in self.c))

    def __pow__(self, e):
        return power(self, e, Pol.one(self.field))

    def __divmod__(self, other):
        f = self.field
        if not other.c:
            raise ZeroDivisionError("polynomial division by zero")
        num = list(self.c)
        d = other.degree
        lcinv = f.inv(other.c[-1])
        q = [0] * max(0, len(num) - d)
        mul, add, neg = f.mul_table, f.add_table, f.neg_table
        for i in range(len(num) - 1, d - 1, -1):
            c = num[i]
            if c:
                qc = mul[c][lcinv]
                q[i - d] = qc
                for j, oc in enumerate(other.c):
                    num[i - d + j] = add[num[i - d + j]][neg[mul[qc][oc]]]
        return Pol(f, q), Pol(f, num[:d])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if not self.c or self.c[-1] == 1:
            return self
        return self.scale(self.field.inv(self.c[-1]))

    def gcd(self, other):
        a, b = self, other
        while b:
            a, b = b, a % b
        return a.monic()

    def lcm(self, other):
        return self * other // self.gcd(other)

    def xgcd(self, other):
        """Return (g, s, t) with s*self + t*other = g, g monic."""
        f = self.field
        r0, r1 = self, other
        s0, s1 = Pol.one(f), Pol.zero(f)
        t0, t1 = Pol.zero(f), Pol.one(f)
        while r1:
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        if r0:
            lcinv = f.inv(r0.leading())
            r0, s0, t0 = r0.scale(lcinv), s0.scale(lcinv), t0.scale(lcinv)
        return r0, s0, t0

    def frob_power(self, k):
        """The p^k-th power, computed coefficient-wise."""
        f = self.field
        q = f.p ** k
        out = [0] * (q * self.degree + 1) if self.c else []
        for i, x in enumerate(self.c):
            out[q * i] = f.pow(x, q)
        return Pol(f, out)

    # -- evaluation --

    def eval(self, x):
        """Evaluate at a field element (code) of the same field."""
        return self.eval_in(self.field, x, range(self.field.order))

    def eval_in(self, big, x, emb):
        """Evaluate at x in a larger field, mapping coefficients via emb."""
        acc = 0
        for c in reversed(self.c):
            acc = big.add(big.mul(acc, x), emb[c])
        return acc

    def roots_in(self, big, emb=None):
        """All roots in the (possibly larger) field big, ascending codes."""
        if emb is None:
            emb = big.embedding(self.field)
        return [z for z in big.elements() if self.eval_in(big, z, emb) == 0]

    def map_to(self, big, emb):
        """The same polynomial with coefficients pushed into big via emb."""
        return Pol(big, tuple(emb[c] for c in self.c))

    # -- text form --

    def format(self, symbol="t"):
        if not self.c:
            return "0"
        f = self.field
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.c[i]
            if c == 0:
                continue
            if f.n == 1:
                cs = str(c)
            else:
                cs = "g%d" % c  # extension-field coefficient, by code
            if i == 0:
                parts.append(cs)
            else:
                xs = symbol if i == 1 else "%s^%d" % (symbol, i)
                parts.append(xs if cs == "1" else cs + "*" + xs)
        return "+".join(parts)

    def __repr__(self):
        return self.format()


def power(x, e, one):
    """x^e for e >= 0 by repeated squaring, with no product by one (x^1 is x
    itself) and no last squaring, which nothing would use."""
    if e < 0:
        raise Unsupported("power needs an exponent >= 0, not %d" % e)
    r = None
    while e:
        if e & 1:
            r = x if r is None else r * x
        e >>= 1
        if e:
            x = x * x
    return one if r is None else r


def parse_pol(field, text, symbol="t"):
    """Parse 'c*t^k' sums with integer coefficients 0..p-1."""
    terms = parse_int_coeffs(text, symbol)
    return Pol.from_int_coeffs(field, [terms.get(k, 0) for k in
                                       range(max(terms, default=-1) + 1)])


def parse_int_coeffs(text, symbol="t"):
    """The integer coefficients of a 'c*t^k' sum, unreduced, as a dict
    {exponent: coefficient}: no dense list, whatever the exponents.

    Raises ValueError with the offending position on malformed input.
    """
    s = text.replace(" ", "").replace("-", "+-")
    if not s:
        raise ValueError("empty polynomial literal")
    coeffs, pos = {}, 0
    for term in s.split("+"):
        if term == "":
            pos += 1
            continue
        neg = term.startswith("-")
        body = term[1:] if neg else term
        if symbol in body:
            head, _, tail = body.partition(symbol)
            if head in ("", "*"):
                c = 1
            else:
                if head.endswith("*"):
                    head = head[:-1]
                if not head.isdigit():
                    raise ValueError("bad coefficient %r at position %d" % (head, pos))
                c = int(head)
            if tail == "":
                k = 1
            elif tail.startswith("^") and tail[1:].isdigit():
                k = int(tail[1:])
            else:
                raise ValueError("bad exponent %r at position %d" % (tail, pos))
        else:
            if not body.isdigit():
                raise ValueError("bad term %r at position %d" % (term, pos))
            c, k = int(body), 0
        coeffs[k] = coeffs.get(k, 0) + (-c if neg else c)
        pos += len(term) + 1
    return coeffs


def digit_tuples(q, d):
    """All d-tuples over range(q), first entry fastest: tuple k holds the
    base-q digits of k, least significant first."""
    return [t[::-1] for t in itertools.product(range(q), repeat=d)]


def monics_of_degree(field, d):
    """All monic polynomials of degree d, in a fixed deterministic order."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    return [Pol(field, c + (1,)) for c in digit_tuples(field.order, d)]


def polys_below_degree(field, d):
    """All q^d polynomials of degree < d (including 0), fixed order."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    return [Pol(field, c) for c in digit_tuples(field.order, d)]


def monics_up_to_degree(field, d):
    out = []
    for e in range(d + 1):
        out.extend(monics_of_degree(field, e))
    return out


def factor_squarefree_monic(f):
    """Monic irreducible factors of a square-free monic polynomial.

    Trial division by monics of increasing degree; adequate for the small
    moduli this library works with.  Every factor of lower degree is
    already divided out, so a divisor of the current degree is irreducible.
    """
    field = f.field
    rem = f
    factors = []
    d = 1
    while rem.degree > 0:
        if 2 * d > rem.degree:
            factors.append(rem)
            break
        for cand in monics_of_degree(field, d):
            if rem.degree < d:
                break
            q, r = divmod(rem, cand)
            if not r:
                factors.append(cand)
                rem = q
                if not (rem % cand):
                    raise NotSquareFree("repeated factor %r" % cand)
        d += 1
    return factors


def is_irreducible(f):
    """Trial division by all monic candidates up to half the degree."""
    if f.degree <= 1:
        return f.degree == 1
    for d in range(1, f.degree // 2 + 1):
        for cand in monics_of_degree(f.field, d):
            if not f % cand:
                return False
    return True


def irreducible_monics(field, d):
    """All monic irreducible polynomials of degree 1..d, by degree then code."""
    out = []
    for deg in range(1, d + 1):
        out.extend(f for f in monics_of_degree(field, deg) if is_irreducible(f))
    return out
