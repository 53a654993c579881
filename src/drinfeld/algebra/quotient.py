"""Quotient rings F_{q^D}(theta)[x_1,..,x_r] / (Phi_1(x_1),..,Phi_r(x_r)).

Each relation is univariate in its own generator, so reduction is
canonical: every element has a unique dense coordinate vector indexed by
multidegrees below (deg Phi_1, ..., deg Phi_r).  With r >= 2 the ring
may have zero divisors; inversion detects them and raises NotInvertible.
"""

from ..errors import NotInvertible
from .ratfunc import RF


class QuotientRing:
    __slots__ = ("field", "gen_names", "relations", "dims", "total",
                 "_strides", "_ext_dims", "_ext_strides", "_red",
                 "_zero_rf", "_one_rf", "zero", "one", "_exps")

    def __init__(self, field, generators=()):
        """generators: sequence of (name, relation) with relation a list of
        RF coefficients of a monic polynomial (low degree first)."""
        self.field = field
        self.gen_names = tuple(name for name, _ in generators)
        self.relations = tuple(tuple(rel) for _, rel in generators)
        self.dims = tuple(len(rel) - 1 for rel in self.relations)
        for rel, d in zip(self.relations, self.dims):
            if d < 1 or rel[-1] != RF.one(field):
                raise ValueError("relations must be monic of positive degree")
        total = 1
        strides = []
        for d in self.dims:
            strides.append(total)
            total *= d
        self.total = total
        self._strides = tuple(strides)
        ext_dims = tuple(2 * d - 1 for d in self.dims)
        t = 1
        ext_strides = []
        for d in ext_dims:
            ext_strides.append(t)
            t *= d
        self._ext_dims = ext_dims
        self._ext_strides = tuple(ext_strides)
        self._zero_rf = RF.zero(field)
        self._one_rf = RF.one(field)

        # reduction vectors: x_i^m for dims[i] <= m <= 2*dims[i]-2
        red = []
        for i, rel in enumerate(self.relations):
            d = self.dims[i]
            table = {}
            cur = [-rel[j] for j in range(d)]  # x^d
            for m in range(d, 2 * d - 1):
                table[m] = tuple(cur)
                nxt = [self._zero_rf] * d
                for j in range(d - 1):
                    nxt[j + 1] = nxt[j + 1] + cur[j]
                top = cur[d - 1]
                if top:
                    for j in range(d):
                        nxt[j] = nxt[j] + top * table[d][j]
                cur = nxt
            red.append(table)
        self._red = red

        exps = []
        for idx in range(total):
            e = []
            k = idx
            for d in self.dims:
                e.append(k % d)
                k //= d
            exps.append(tuple(e))
        self._exps = exps

        self.zero = REl(self, (self._zero_rf,) * total)
        self.one = REl(self, (self._one_rf,) + (self._zero_rf,) * (total - 1))

    # -- constructors for elements --

    def from_rf(self, rf):
        return REl(self, (rf,) + (self._zero_rf,) * (self.total - 1))

    def from_pol(self, p):
        return self.from_rf(RF.from_pol(p))

    def from_const(self, code):
        from .poly import Pol
        return self.from_pol(Pol.const(self.field, code))

    def from_int(self, k):
        return self.from_const(self.field.scalar(k))

    def gen(self, i):
        coords = [self._zero_rf] * self.total
        coords[self._strides[i]] = self._one_rf
        return REl(self, tuple(coords))

    def gen_index(self, name):
        return self.gen_names.index(name)

    def describe(self, symbol="t"):
        rels = []
        for name, rel in zip(self.gen_names, self.relations):
            terms = ["(%s)*%s^%d" % (c.format(symbol), name, j)
                     for j, c in enumerate(rel) if c]
            rels.append("%s: %s = 0" % (name, " + ".join(terms) or "0"))
        return rels

    def __repr__(self):
        if not self.gen_names:
            return "FracField(%r[t])" % self.field
        return "QuotientRing(%r[t]; %s)" % (self.field, ", ".join(self.gen_names))


class REl:
    """Element of a QuotientRing: dense RF coordinate vector."""

    __slots__ = ("ring", "coords")

    def __init__(self, ring, coords):
        self.ring = ring
        self.coords = coords

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other):
        return (isinstance(other, REl) and self.ring is other.ring
                and self.coords == other.coords)

    def __hash__(self):
        return hash((id(self.ring), self.coords))

    def __add__(self, other):
        return REl(self.ring, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return REl(self.ring, tuple(-a for a in self.coords))

    def __sub__(self, other):
        return REl(self.ring, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def scale_rf(self, rf):
        if not rf:
            return self.ring.zero
        return REl(self.ring, tuple(c * rf if c else c for c in self.coords))

    def scale_const(self, code):
        if code == 1:
            return self
        if code == 0:
            return self.ring.zero
        return REl(self.ring, tuple(c.scale(code) if c else c for c in self.coords))

    def __mul__(self, other):
        ring = self.ring
        if ring.total == 1:
            return REl(ring, (self.coords[0] * other.coords[0],))
        # scalar fast paths
        if self.is_scalar():
            return other.scale_rf(self.coords[0])
        if other.is_scalar():
            return self.scale_rf(other.coords[0])
        exps = ring._exps
        est = ring._ext_strides
        ext = {}
        nz1 = [(exps[i], c) for i, c in enumerate(self.coords) if c]
        nz2 = [(exps[i], c) for i, c in enumerate(other.coords) if c]
        for e1, c1 in nz1:
            for e2, c2 in nz2:
                key = sum((a + b) * s for a, b, s in zip(e1, e2, est))
                prod = c1 * c2
                if key in ext:
                    ext[key] = ext[key] + prod
                else:
                    ext[key] = prod
        return ring._reduce_ext(ext)

    def is_scalar(self):
        return not any(self.coords[1:])

    def __pow__(self, e):
        ring = self.ring
        if e < 0:
            return self.invert() ** (-e)
        r = ring.one
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def invert(self):
        ring = self.ring
        if not self:
            raise NotInvertible("zero element")
        if self.is_scalar():
            return ring.from_rf(self.coords[0].inverse())
        if len(ring.dims) == 1:
            return _invert_single(self)
        return _invert_linalg(self)

    def exponent_free(self, i):
        """True if no monomial involves generator i."""
        exps = self.ring._exps
        return all(not c or exps[j][i] == 0 for j, c in enumerate(self.coords))

    def scalar_part(self):
        """The exponent-zero coordinate (an RF)."""
        return self.coords[0]

    def format(self, symbol="t"):
        ring = self.ring
        parts = []
        for idx, c in enumerate(self.coords):
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


def _reduce_ext(ring, ext):
    """Reduce an extended exponent dict back to canonical coordinates."""
    dims = ring.dims
    est = ring._ext_strides
    edims = ring._ext_dims
    r = len(dims)
    for i in range(r):
        d = dims[i]
        if edims[i] <= d:
            continue
        red = ring._red[i]
        # walk overflowed exponents from high to low
        changed = True
        while changed:
            changed = False
            for key in list(ext.keys()):
                e_i = (key // est[i]) % edims[i]
                if e_i >= d:
                    c = ext.pop(key)
                    if not c:
                        continue
                    base = key - e_i * est[i]
                    for j, rc in enumerate(red[e_i]):
                        if rc:
                            k2 = base + j * est[i]
                            prod = c * rc
                            if k2 in ext:
                                ext[k2] = ext[k2] + prod
                            else:
                                ext[k2] = prod
                    changed = True
    coords = [ring._zero_rf] * ring.total
    st = ring._strides
    for key, c in ext.items():
        if not c:
            continue
        idx = 0
        for i in range(r):
            e_i = (key // est[i]) % edims[i]
            idx += e_i * st[i]
        coords[idx] = coords[idx] + c
    return REl(ring, tuple(coords))


QuotientRing._reduce_ext = _reduce_ext


def _invert_single(x):
    """Extended Euclid in RF[lambda] modulo the (irreducible) relation."""
    ring = x.ring
    rel = list(ring.relations[0])
    a = list(x.coords)
    while a and not a[-1]:
        a.pop()
    g, s = _xgcd_rf(rel, a, ring.field)
    if len(g) != 1:
        raise NotInvertible("element shares a factor with the relation")
    ginv = g[0].inverse()
    coords = [ring._zero_rf] * ring.total
    for i, c in enumerate(s):
        coords[i] = c * ginv
    return REl(ring, tuple(coords))


def _rf_poly_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _rf_poly_divmod(a, b, field):
    a = list(a)
    db = len(b) - 1
    lcinv = b[-1].inverse()
    while len(a) - 1 >= db and a:
        c = a[-1]
        if c:
            qc = c * lcinv
            off = len(a) - 1 - db
            for j in range(db):
                a[off + j] = a[off + j] - qc * b[j]
        a.pop()
        _rf_poly_trim(a)
    return a


def _xgcd_rf(m, a, field):
    """Return (g, s) with s*a = g (mod m), as RF coefficient lists."""
    zero, one = RF.zero(field), RF.one(field)
    r0, r1 = list(m), list(a)
    s0, s1 = [zero], [one]
    while r1:
        # divmod r0 by r1 tracking the quotient
        q = []
        rem = list(r0)
        db = len(r1) - 1
        lcinv = r1[-1].inverse()
        qlen = max(0, len(rem) - db)
        q = [zero] * qlen
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c:
                qc = c * lcinv
                q[i - db] = qc
                for j in range(db + 1):
                    rem[i - db + j] = rem[i - db + j] - qc * r1[j]
        rem = _rf_poly_trim(rem[:db] if db else [])
        # s0 - q*s1
        prod = [zero] * (len(q) + len(s1) - 1) if q and s1 else []
        for i, qc in enumerate(q):
            if qc:
                for j, sc in enumerate(s1):
                    if sc:
                        prod[i + j] = prod[i + j] + qc * sc
        news = list(s0) + [zero] * max(0, len(prod) - len(s0))
        for i, pc in enumerate(prod):
            news[i] = news[i] - pc
        _rf_poly_trim(news)
        r0, r1 = r1, rem
        s0, s1 = s1, news
    return r0, s0


def _invert_linalg(x):
    """Inversion in a multi-generator ring via a linear solve over RF."""
    ring = x.ring
    n = ring.total
    # columns: x * basis_j
    cols = []
    for j in range(n):
        coords = [ring._zero_rf] * n
        coords[j] = ring._one_rf
        cols.append((x * REl(ring, tuple(coords))).coords)
    # solve M v = e0 with M[i][j] = cols[j][i]
    M = [[cols[j][i] for j in range(n)] for i in range(n)]
    rhs = [ring._one_rf] + [ring._zero_rf] * (n - 1)
    for col in range(n):
        piv = None
        for row in range(col, n):
            if M[row][col]:
                piv = row
                break
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
    return REl(ring, tuple(rhs))
