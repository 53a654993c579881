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

from ..errors import NotReducible, Unsupported
from .poly import Pol, digit_tuples, is_irreducible, monics_of_degree


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

    Intended for the small constant fields of this library: the tables
    take O(order^2) time and memory, so an order above 1024 raises
    Unsupported.
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
        if order > 1024:
            raise Unsupported("F_%d is too large for tabulated arithmetic"
                              " (order at most 1024)" % order)
        self.p = p
        self.n = n
        self.order = order
        self.modulus = tuple(_min_irreducible(p, n)[:-1])  # c_0..c_{n-1}
        self.digits = digit_tuples(p, n)
        if n == 1:
            # Pol over F_p runs on these tables, so they are plain ints
            self.add_table = [[(a + b) % p for b in range(p)] for a in range(p)]
            self.neg_table = [-a % p for a in range(p)]
            self.mul_table = [[a * b % p for b in range(p)] for a in range(p)]
        else:
            prime = finite_field(p)
            pols = [Pol(prime, d) for d in self.digits]
            code = {f.c: k for k, f in enumerate(pols)}
            modulus = Pol(prime, self.modulus + (1,))
            self.neg_table = [code[(-f).c] for f in pols]
            add = self.add_table = [[0] * order for _ in range(order)]
            mul = self.mul_table = [[0] * order for _ in range(order)]
            for a, f in enumerate(pols):
                for b in range(a, order):
                    g = pols[b]
                    add[a][b] = add[b][a] = code[(f + g).c]
                    mul[a][b] = mul[b][a] = code[(f * g % modulus).c]
        self.inv_table = [0] + [row.index(1) for row in self.mul_table[1:]]
        self._emb_cache = {}

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
        polynomial with smallest code.  Prime-field codes are the same in
        every extension, so F_p embeds by identity.
        """
        key = (sub.p, sub.n)
        if key not in self._emb_cache:
            if sub.p != self.p or self.n % sub.n:
                raise ValueError("not a subfield")
            if sub.n == 1 or sub.n == self.n:
                table = list(range(sub.order))
            else:
                prime, ident = finite_field(self.p), range(self.p)
                z = Pol(prime, sub.modulus + (1,)).roots_in(self, ident)[0]
                table = [Pol(prime, d).eval_in(self, z, ident)
                         for d in sub.digits]
            self._emb_cache[key] = table
        return self._emb_cache[key]

    def __repr__(self):
        return "GF(%d^%d)" % (self.p, self.n) if self.n > 1 else "GF(%d)" % self.p


class ResidueRing:
    """The image of a torsion ring in a finite field T: theta -> alpha,
    generator i -> roots[i], a big-field code c -> emb[c].  It has what
    UExpansion and TorsionContext use of a QuotientRing (a fraction enters
    as from_pol(num) * from_pol(den).invert()), on its elements elems[c],
    one per code c of T; no image in T raises NotReducible."""

    __slots__ = ("field", "emb", "alpha", "roots", "elems", "zero", "one")

    def __init__(self, field, emb, alpha, roots):
        self.field, self.emb, self.alpha, self.roots = field, emb, alpha, roots
        self.elems = [Residue(self, c) for c in field.elements()]
        self.zero, self.one = self.elems[0], self.elems[1]

    def dot(self, pairs):
        add, mul = self.field.add_table, self.field.mul_table
        acc = 0
        for a, b in pairs:
            acc = add[acc][mul[a.code][b.code]]
        return self.elems[acc]

    def combine(self, elems, rows):
        """[sum_k row[k] * elems[k] for row in rows], row[k] big codes."""
        return [self.dot((e, self.from_const(c)) for e, c in zip(elems, row))
                for row in rows]

    def from_pol(self, p):
        return self.elems[p.eval_in(self.field, self.alpha, self.emb)]

    def from_const(self, code):
        return self.elems[self.emb[code]]

    def gen(self, i):
        return self.elems[self.roots[i]]


class Residue:
    """An element of a ResidueRing: a code of its field T, held once."""

    __slots__ = ("ring", "code")

    def __init__(self, ring, code):
        self.ring, self.code = ring, code

    coords = property(lambda self: self.code)

    def __bool__(self):
        return self.code != 0

    def __add__(self, other):
        ring = self.ring
        return ring.elems[ring.field.add_table[self.code][other.code]]

    def __neg__(self):
        return self.ring.elems[self.ring.field.neg_table[self.code]]

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        ring = self.ring
        return ring.elems[ring.field.mul_table[self.code][other.code]]

    def scale_const(self, code):
        """Times the big-field constant code."""
        ring = self.ring
        return ring.elems[ring.field.mul_table[self.code][ring.emb[code]]]

    def invert(self):
        if not self.code:
            raise NotReducible("a value to invert vanishes at alpha")
        return self.ring.elems[self.ring.field.inv_table[self.code]]

    def format(self, symbol="t"):
        return str(self.code)


# One ResidueRing per point: a ring and its interned elements form a cycle.
residue_ring = functools.lru_cache(maxsize=None)(ResidueRing)


@functools.lru_cache(maxsize=None)
def _finite_field(p, n):
    return FiniteField(p, n)


def finite_field(p, n=1):
    """Cached constructor for F_{p^n}; the same (p, n) is the same object."""
    return _finite_field(p, n)
