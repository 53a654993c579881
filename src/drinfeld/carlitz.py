"""Carlitz module, cyclotomic torsion rings, and Goss polynomials.

The Carlitz module is the F_q[theta]-module structure on any F_q[theta]
algebra given by C_theta(x) = theta*x + x^q.  Its n-torsion generates the
cyclotomic rings in which every expansion coefficient of this package
lives.  No period or exponential is ever represented analytically: the
torsion value playing the role of exp(pi*beta/n) is the algebraic element
C_beta(lambda_n).
"""

from .algebra import (RF, Pol, QuotientRing, residue_ring,
                      factor_squarefree_monic, finite_field, is_irreducible,
                      monics_of_degree, polys_below_degree)
from .errors import ConductorMismatch

# Largest residue field residue_point builds.  Its tables are built once
# per process; the exact rows and rank they spare are paid per call.  Timed
# in fresh interpreters on a 2-vCPU x86_64 VM: F_81 and the point take
# 0.02-0.03 s, against exact rows and rank of 0.05-0.11 s at the F_3
# quadratics, k = 1..3, N = 36; F_256 and its point 0.32-0.49 s (the
# tables alone 0.31-0.44 s), against exact rows and rank of 0.11-0.19 s
# at F_4, t^2+wt+1, k = 1 or 2, N = 40: one call there is faster exact.
RESIDUE_ORDER_MAX = 81


def carlitz_coeffs(a):
    """Coefficients [a]_0..[a]_{deg a} with C_a(x) = sum [a]_i x^(q^i).

    Built from C_theta(x) = theta*x + x^q by F_q-linearity and Horner
    composition; each [a]_i lies in A = F_q[theta].
    """
    field = a.field
    qexp = field.n  # q = p^n, so the q-power Frobenius is frob_power(n)
    cur = [Pol.zero(field)]
    theta = Pol.x(field)
    for code in reversed(a.c) if a.c else [0]:
        # cur <- theta*cur + frob(cur) + code  (i.e. C_{theta*b + c})
        nxt = [theta * cur[0] + Pol.const(field, code)]
        for i in range(1, len(cur)):
            nxt.append(theta * cur[i] + cur[i - 1].frob_power(qexp))
        nxt.append(cur[-1].frob_power(qexp))
        while len(nxt) > 1 and not nxt[-1]:
            nxt.pop()
        cur = nxt
    return cur


class TorsionContext:
    """Carlitz n-torsion ring for a square-free monic modulus.

    One ring generator lambda_i per prime factor p_i, with relation
    Phi_{p_i}(x) = C_{p_i}(x)/x; the composite generator lambda_n is
    assembled by partial fractions.  An optional constant-field extension
    degree D replaces F_q by F_{q^D} (needed once character roots enter).
    Memos ``powers`` and ``gauss`` (g(chi), 1/n per conductor n) die with it.
    """

    __slots__ = ("field", "big", "emb", "modulus", "primes", "ring",
                 "gens", "_cofs", "_exp_cache", "_powers", "gauss")

    def __init__(self, modulus, ext_degree=1):
        field = modulus.field
        if not modulus.is_monic() or modulus.degree < 1:
            raise ValueError("modulus must be monic and nonconstant")
        self.field = field
        big = finite_field(field.p, field.n * ext_degree)
        self.big = big
        self.emb = big.embedding(field)
        self.modulus = modulus
        self.primes = factor_squarefree_monic(modulus)
        gens = []
        for i, prime in enumerate(self.primes):
            coeffs = carlitz_coeffs(prime)
            q = field.order
            deg = q ** prime.degree - 1
            rel = [Pol.zero(big)] * (deg + 1)
            for j, c in enumerate(coeffs):
                rel[q ** j - 1] = c.map_to(big, self.emb)
            gens.append(("l%d" % (i + 1), rel))
        # partial fractions: sum c_i * (n/p_i) = 1 in A, where
        # s*(n/p_i) + t*p_i = 1 gives c_i = s mod p_i (c_1 = 1 for one prime)
        self._cofs = [(modulus // prime).xgcd(prime)[1] % prime
                      for prime in self.primes]
        self._attach(QuotientRing(big, gens))

    def _attach(self, ring):
        """Make ring the context's ring, with fresh generators and memos."""
        self.ring = ring
        self.gens = tuple(ring.gen(i) for i in range(len(self.primes)))
        self._exp_cache, self._powers, self.gauss = {}, {}, {}

    lam = property(lambda self: self.exp_value(Pol.one(self.field)))

    def reduced(self):
        """This context over T = A/Q: the same modulus and constants, with
        the ResidueRing of residue_point() as its ring, so every method
        returns the image in T of its exact value (or raises NotReducible
        where that has no image).  None when residue_point() is None."""
        point = self.residue_point()
        if point is None:
            return None
        red = object.__new__(TorsionContext)
        for name in ("field", "big", "emb", "modulus", "primes", "_cofs"):
            setattr(red, name, getattr(self, name))
        T, emb, alpha, roots = point
        red._attach(residue_ring(T, tuple(emb), alpha, tuple(roots)))
        return red

    def lift_poly(self, p):
        """A polynomial in theta as a scalar ring element."""
        return self.ring.from_pol(p.map_to(self.big, self.emb))

    def lift_const(self, code):
        """A base-field constant as a scalar ring element."""
        return self.ring.from_const(self.emb[code])

    def big_const(self, code):
        """A big-field constant as a scalar ring element."""
        return self.ring.from_const(code)

    def char_value(self, chi, a):
        """chi(a) as a code of the context's big field, which must be the
        character's own: no value passes from one field into another."""
        if chi.big is not self.big:
            raise ConductorMismatch("character values lie in %r, not in %r"
                                    % (chi.big, self.big))
        return chi.eval(a)

    def conductor_of(self, chi):
        """The conductor of chi, which must divide the context modulus."""
        n = chi.conductor
        if self.modulus % n:
            raise ConductorMismatch("conductor %s does not divide the context"
                                    " modulus %s" % (n.format(),
                                                     self.modulus.format()))
        return n

    def exp_value(self, beta):
        """The torsion value standing for exp_C(pi*beta/n): C_beta(lambda_n).

        Computed componentwise through the partial fractions, so each term
        only involves its own generator: one dot over the pairs
        ([beta*c_i mod p_i]_j, lambda_i^(q^j)), the powers from self.powers.
        """
        beta = beta % self.modulus
        key = beta.c
        cached = self._exp_cache.get(key)
        if cached is not None:
            return cached
        q = self.field.order
        pairs = []
        for gen, c, prime in zip(self.gens, self._cofs, self.primes):
            coeffs = carlitz_coeffs(beta * c % prime)
            pows = self.powers(gen, q ** (len(coeffs) - 1) + 1)
            pairs += [(self.lift_poly(a), pows[q ** j])
                      for j, a in enumerate(coeffs) if a]
        out = self.ring.dot(pairs)
        self._exp_cache[key] = out
        return out

    def powers(self, x, count):
        """[1, x, ..., x^(count-1)] for a ring element x, or a longer list
        of the same powers.  Kept per value of x and grown by one product
        per new power; callers must not mutate the list."""
        pows = self._powers.setdefault(x.coords, [self.ring.one])
        while len(pows) < count:
            pows.append(pows[-1] * x)
        return pows

    def torsion_inverse(self, level):
        """The function lam -> 1/lam on primitive level-torsion values
        (C_level(lam) = 0, lam a unit), with no linear solve: C_level(lam)/lam
        = 0 gives 1/lam = -sum_{j>=1} ([level]_j/level) lam^(q^j-2), and the
        powers come from self.powers.  level is one scalar inversion."""
        q = self.field.order
        inv_level = self.lift_poly(level).invert()
        rel = [(q ** j - 2, -self.lift_poly(c) * inv_level)
               for j, c in enumerate(carlitz_coeffs(level)) if j and c]
        count = q ** level.degree - 1

        def inverse(lam):
            pows = self.powers(lam, count)
            return self.ring.dot([(c, pows[e]) for e, c in rel])
        return inverse

    def exp_at(self, beta, divisor):
        """Torsion value for a divisor modulus: exp_C(pi*beta/divisor)."""
        cof, rem = divmod(self.modulus, divisor)
        if rem:
            raise ValueError("divisor does not divide the ring modulus")
        return self.exp_value(beta * cof)

    def galois(self, b):
        """The ring endomorphism lambda_i -> C_b(lambda_i) = exp_at(b, p_i),
        as a function applied monomial by monomial.

        For b prime to the modulus this is the Galois action sending
        exp_value(beta) to exp_value(b*beta).
        """
        images = [self.exp_at(b, prime) for prime in self.primes]

        def apply(x):
            pairs = []
            for exps, c in x.terms():
                mono = self.ring.one
                for image, e in zip(images, exps):
                    if e:
                        mono = mono * self.powers(image, e + 1)[e]
                pairs.append((c, mono))
            return self.ring.dot(pairs)
        return apply

    def residue_point(self):
        """(T, emb, alpha, roots): a point of the ring over a finite field.

        T = A/Q for the first monic irreducible Q = modulus*m + 1 (m monic,
        in the order of monics_of_degree) of the least degree that the
        extension degree divides, so T contains the big field; emb is
        T.embedding(big), alpha a root of Q and roots[i] the least root of
        relation i at theta = alpha.  Such a Q splits completely in the
        torsion field (Hayes, Trans. AMS 189, 1974), so these roots exist
        and theta -> alpha, lambda_i -> roots[i], c -> emb[c] is a ring
        homomorphism on the elements whose denominator is nonzero at
        alpha.  Base-field constants go through self.emb first, so one
        embedding serves everything.  None when T would have more than
        RESIDUE_ORDER_MAX elements.
        """
        field, big, mod = self.field, self.big, self.modulus
        ext = big.n // field.n
        deg = ext * -(-mod.degree // ext)
        one = Pol.one(field)
        while field.order ** deg <= RESIDUE_ORDER_MAX:
            for m in monics_of_degree(field, deg - mod.degree):
                Q = mod * m + one
                if is_irreducible(Q):
                    T = finite_field(field.p, field.n * deg)
                    emb = T.embedding(big)
                    alpha = Q.roots_in(T, [emb[c] for c in self.emb])[0]
                    roots = [Pol(T, [c.eval_in(T, alpha, emb)
                                     for c in rel]).roots_in(T)[0]
                             for rel in self.ring.relations]
                    return T, emb, alpha, roots
            deg += ext
        return None

    def residues(self, modulus=None):
        """All beta in A with deg beta < deg modulus, in canonical order."""
        m = modulus if modulus is not None else self.modulus
        return polys_below_degree(self.field, m.degree)

    def units(self, modulus=None):
        """Residues coprime to the modulus."""
        m = modulus if modulus is not None else self.modulus
        one = Pol.one(self.field)
        return [b for b in self.residues(m) if b and b.gcd(m) == one]


def carlitz_factorials(field, count):
    """D_0..D_{count-1} with D_0 = 1, D_i = (theta^{q^i} - theta)*D_{i-1}^q."""
    q = field.order
    theta = Pol.x(field)
    out = [Pol.one(field)]
    for i in range(1, count):
        out.append((theta ** (q ** i) - theta) * out[-1] ** q)
    return out


def _goss_recursion(field, N):
    """G_1..G_N as RF-coefficient lists (low degree first) via the recursion
    G_k = X*(G_{k-1} + sum_i G_{k-q^i}/D_i), with G_k = X^k for k <= q."""
    q = field.order
    imax = 1
    while q ** (imax + 1) <= N:
        imax += 1
    D = carlitz_factorials(field, imax + 1)
    alpha = [RF.from_pol(d).inverse() for d in D]
    zero = RF.zero(field)
    one = RF.one(field)
    polys = [None]  # 1-indexed
    for k in range(1, N + 1):
        if k <= q:
            polys.append([zero] * k + [one])
            continue
        acc = list(polys[k - 1])
        i = 1
        while q ** i < k:
            prev = polys[k - q ** i]
            a = alpha[i]
            for j, c in enumerate(prev):
                if c:
                    acc[j] = acc[j] + c * a
            i += 1
        polys.append([zero] + acc)
    return polys


_goss_cache = {}


def goss_polys(field, N):
    """G_1..G_N for the Carlitz lattice, by the recursion of Gekeler
    (Invent. Math. 93, 1988) and cached per (field, N).

    Returns a list indexed 1..N of RF coefficient lists.  The recursion is
    the only construction here; the tests check it against the exponential
    generating identity.
    """
    if N < 1:
        raise ValueError("k must be positive")
    key = (id(field), N)
    cached = _goss_cache.get(key)
    if cached is None:
        cached = _goss_cache[key] = _goss_recursion(field, N)
    return cached
