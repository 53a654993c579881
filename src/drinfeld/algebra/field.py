"""Small finite fields F_{p^n} with fully tabulated arithmetic.

Elements of F_{p^n} are plain ints in range(p**n).  The int encodes the
coefficient vector of the element with respect to the power basis of
y = class of the variable in F_p[y]/(f): element k has digits
k = d_0 + d_1*p + ... + d_{n-1}*p^{n-1}, representing d_0 + d_1*y + ...

The defining polynomial f is chosen deterministically: the monic
irreducible of degree n whose coefficient vector (c_0, ..., c_{n-1}),
read as a base-p integer, is smallest.  This makes every field, every
embedding and every root choice reproducible across runs.
"""

import functools

from ..errors import NotReducible
from .poly import is_irreducible, monics_of_degree


def _poly_mul_mod_p(a, b, p):
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
    # a, m lists of ints mod p, m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm:
        c = a[-1] % p
        if c:
            off = len(a) - 1 - dm
            for j in range(dm):
                a[off + j] = (a[off + j] - c * m[j]) % p
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _min_irreducible(p, n):
    """Monic irreducible of degree n with smallest coefficient code, as a
    coefficient list c_0..c_n."""
    if n == 1:
        return [0, 1]
    for f in monics_of_degree(finite_field(p), n):
        if is_irreducible(f):
            return list(f.c)
    raise AssertionError("no irreducible found")  # pragma: no cover


class FiniteField:
    """F_{p^n} with precomputed add/mul/inv tables.

    Intended for the small constant fields of this library (order a few
    hundred at most); construction cost is O(order^2).
    """

    __slots__ = (
        "p", "n", "order", "modulus", "digits", "add_table", "mul_table",
        "neg_table", "inv_table", "_emb_cache",
    )

    def __init__(self, p, n):
        if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            raise ValueError("p must be prime")
        if n < 1:
            raise ValueError("n must be positive")
        order = p ** n
        if order > 4096:
            raise ValueError("field too large for tabulated arithmetic")
        self.p = p
        self.n = n
        self.order = order
        self.modulus = tuple(_min_irreducible(p, n)[:-1])  # c_0..c_{n-1}

        digits = []
        for k in range(order):
            d = []
            t = k
            for _ in range(n):
                d.append(t % p)
                t //= p
            digits.append(tuple(d))
        self.digits = digits

        self.add_table = [
            [self._from_digits([(x + y) % p for x, y in zip(digits[a], digits[b])])
             for b in range(order)]
            for a in range(order)
        ]
        self.neg_table = [self._from_digits([(-x) % p for x in digits[a]])
                          for a in range(order)]
        self.mul_table = [[self._mul_raw(a, b) for b in range(order)]
                          for a in range(order)]
        inv = [0] * order
        for a in range(1, order):
            row = self.mul_table[a]
            inv[a] = row.index(1)
        self.inv_table = inv
        self._emb_cache = {}

    def _from_digits(self, d):
        k = 0
        for x in reversed(d):
            k = k * self.p + (x % self.p)
        return k

    def _mul_raw(self, a, b):
        da, db = self.digits[a], self.digits[b]
        prod = _poly_mul_mod_p(da, db, self.p)
        return self._from_digits(_poly_mod(prod, self.modulus + (1,), self.p))

    # -- element operations (elements are ints) --

    def add(self, a, b):
        return self.add_table[a][b]

    def mul(self, a, b):
        return self.mul_table[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return self.inv_table[a]

    def pow(self, a, e):
        if e < 0:
            a, e = self.inv(a), -e
        r = 1
        while e:
            if e & 1:
                r = self.mul_table[r][a]
            a = self.mul_table[a][a]
            e >>= 1
        return r

    def scalar(self, k):
        """Image of the integer k under Z -> F_p -> F_{p^n}."""
        return k % self.p

    def elements(self):
        return range(self.order)

    def units(self):
        return range(1, self.order)

    def embedding(self, sub):
        """Embedding table of a subfield into this field.

        Returns a list t with t[a] the image of a; the image of the
        subfield generator is the root of the subfield's defining
        polynomial with smallest code.
        """
        if sub.order == self.order:
            return list(range(self.order))
        key = (sub.p, sub.n)
        if key in self._emb_cache:
            return self._emb_cache[key]
        if sub.p != self.p or self.n % sub.n != 0:
            raise ValueError("not a subfield")
        # find smallest root z of sub's defining polynomial in self
        modpoly = list(sub.modulus) + [1]
        z = None
        for cand in range(self.order):
            acc = 0
            for c in reversed(modpoly):
                acc = self.add(self.mul(acc, cand), self.scalar(c))
            if acc == 0:
                z = cand
                break
        if z is None:
            raise AssertionError("subfield root not found")  # pragma: no cover
        zpow = [1]
        for _ in range(sub.n - 1):
            zpow.append(self.mul(zpow[-1], z))
        table = []
        for a in range(sub.order):
            acc = 0
            for d, zp in zip(sub.digits[a], zpow):
                acc = self.add(acc, self.mul(self.scalar(d), zp))
            table.append(acc)
        self._emb_cache[key] = table
        return table

    def __repr__(self):
        return "GF(%d^%d)" % (self.p, self.n) if self.n > 1 else "GF(%d)" % self.p


class ResidueRing:
    """The image of a torsion ring in a finite field T: theta -> alpha,
    generator i -> roots[i], a big-field code c -> emb[c].  It has what
    UExpansion and TorsionContext use of a QuotientRing, on Residue
    elements; a value with no image in T raises NotReducible."""

    __slots__ = ("field", "emb", "alpha", "roots", "zero", "one")

    def __init__(self, field, emb, alpha, roots):
        self.field, self.emb, self.alpha, self.roots = field, emb, alpha, roots
        self.zero, self.one = Residue(self, 0), Residue(self, 1)

    def dot(self, pairs):
        add, mul = self.field.add_table, self.field.mul_table
        acc = 0
        for a, b in pairs:
            acc = add[acc][mul[a.code][b.code]]
        return Residue(self, acc)

    def from_pol(self, p):
        return Residue(self, p.eval_in(self.field, self.alpha, self.emb))

    def from_rf(self, rf):
        return self.from_pol(rf.num) * self.from_pol(rf.den).invert()

    def from_const(self, code):
        return Residue(self, self.emb[code])

    def gen(self, i):
        return Residue(self, self.roots[i])


class Residue:
    """An element of a ResidueRing: a code of its field T."""

    __slots__ = ("ring", "code")

    def __init__(self, ring, code):
        self.ring, self.code = ring, code

    coords = property(lambda self: self.code)

    def __bool__(self):
        return self.code != 0

    def __add__(self, other):
        ring = self.ring
        return Residue(ring, ring.field.add_table[self.code][other.code])

    def __neg__(self):
        return Residue(self.ring, self.ring.field.neg_table[self.code])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        ring = self.ring
        return Residue(ring, ring.field.mul_table[self.code][other.code])

    def scale_const(self, code):
        """Times the big-field constant code."""
        ring = self.ring
        return Residue(ring, ring.field.mul_table[self.code][ring.emb[code]])

    def invert(self):
        if not self.code:
            raise NotReducible("a value to invert vanishes at alpha")
        return Residue(self.ring, self.ring.field.inv_table[self.code])

    def format(self, symbol="t"):
        return str(self.code)


@functools.lru_cache(maxsize=None)
def _finite_field(p, n):
    return FiniteField(p, n)


def finite_field(p, n=1):
    """Cached constructor for F_{p^n}; the same (p, n) is the same object."""
    return _finite_field(p, n)
