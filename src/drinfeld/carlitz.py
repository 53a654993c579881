"""Carlitz module, cyclotomic torsion rings, and Goss polynomials (one
recursion, goss_recursion, for every lattice: the Carlitz lattice of
goss_polys and the ker C_q of operators.hecke_u).

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

# Largest residue field _reductions builds.  Its tables are built once
# per process, and only after every smaller point fell short; the exact rows
# and rank they spare are paid per call.  Timed in fresh interpreters on a
# 2-vCPU x86_64 VM: F_27 and the first point of an F_3 quadratic take
# 0.002 s; F_243 and its point at t^3+2t+1 0.19 s, against 274 s (one run)
# for the exact rows and rank there at k = 2, N = 150, where F_27 gives 25
# of 26; F_256 and its point 0.32-0.49 s, against exact rows and rank of
# 0.11-0.19 s at F_4, t^2+wt+1, k = 1 or 2, N = 40: one call there is
# faster exact.
RESIDUE_ORDER_MAX = 243


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
    Memos ``powers``, ``gauss`` (g(chi) per character chi), ``u_az``
    (see series.u_of_az) and ``twist_sums`` (see operators.normalized_sums)
    hold ring elements only, so they die with it; a reduced context (see
    _reductions) has its own.
    """

    __slots__ = ("field", "big", "emb", "modulus", "primes", "ring",
                 "gens", "_cofs", "_exp_cache", "_powers", "gauss", "u_az",
                 "twist_sums")

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
        self.u_az, self.twist_sums = {}, {}

    lam = property(lambda self: self.exp_value(Pol.one(self.field)))

    def lift_poly(self, p):
        """A polynomial in theta as a scalar ring element."""
        return self.ring.from_pol(p.map_to(self.big, self.emb))

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
        of the same powers; callers must not mutate the list.  Kept per
        value of x.  A list too short is first extended from the kept list
        of an F_q^*-multiple y = c*x (c != 1), where that is longer, by
        the orbit rule x^j = c^(-j) * y^j: one scale_const per power.  Any
        power still missing is one ring.power_step, so no power but x keeps
        the column cache its product read."""
        pows = self._powers.setdefault(x.coords, [self.ring.one])
        if len(pows) < count:
            f, emb = self.field, self.emb
            for c in range(2, f.order):
                ys = self._powers.get(x.scale_const(emb[c]).coords, ())
                pows += [ys[j].scale_const(emb[f.pow(c, -j)])
                         for j in range(len(pows), min(count, len(ys)))]
        while len(pows) < count:
            pows.append(self.ring.power_step(pows[-1], x))
        return pows

    def torsion_cofactor(self, level):
        """The function lam -> level/lam, integral, on primitive
        level-torsion values: C_level(lam)/lam = 0 gives level/lam =
        -sum_{j>=1} [level]_j lam^(q^j-2), the powers from self.powers."""
        q = self.field.order
        rel = [(q ** j - 2, -self.lift_poly(c))
               for j, c in enumerate(carlitz_coeffs(level)) if j and c]
        count = q ** level.degree - 1

        def cofactor(lam):
            pows = self.powers(lam, count)
            return self.ring.dot([(c, pows[e]) for e, c in rel])
        return cofactor

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

    def _reductions(self):
        """This context over T = A/Q, for each monic irreducible
        Q = modulus*m + 1 (m monic, in the order of monics_of_degree) of
        each degree that the extension degree divides, least first, while
        T has at most RESIDUE_ORDER_MAX elements; a generator, so a field
        is built only when the points before it were not enough.

        Such a Q splits completely in the torsion field (Hayes, Trans. AMS
        189, 1974), so the relations have roots in T, and theta -> alpha
        (a root of Q), lambda_i -> the least root of relation i at alpha,
        c -> emb[c] (emb = T.embedding(big); base-field constants go
        through self.emb first) is a ring homomorphism.  The reduced
        context has the same modulus and constants, with that ResidueRing
        as its ring, so every method returns the image in T of its exact
        value (or raises NotReducible where a series den vanishes).
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
                    red = object.__new__(TorsionContext)
                    for name in ("field", "big", "emb", "modulus", "primes",
                                 "_cofs"):
                        setattr(red, name, getattr(self, name))
                    red._attach(residue_ring(T, tuple(emb), alpha,
                                             tuple(roots)))
                    yield red
            deg += ext

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


def goss_recursion(steps, N, zero, width=None):
    """G_1..G_N of the lattice with exponential sum_i c_i x^(q^i), for steps
    = [(q^i, c_i)], by Gekeler's recursion (Invent. Math. 93, 1988):
    G_1 = c_0*X, G_n = X * sum_{q^i < n} c_i G_{n-q^i}.  Coefficient lists,
    low degree first, indexed 1..N and cut to width coefficients if given."""
    polys = [None, [zero, steps[0][1]][:width]]  # 1-indexed
    for n in range(2, N + 1):
        size = n if width is None else min(n, width - 1)
        acc = [zero] * size
        for s, c in steps:
            if s < n:
                for j, x in enumerate(polys[n - s][:size]):
                    if x:
                        acc[j] = acc[j] + c * x
        polys.append([zero] + acc)
    return polys


_goss_cache = {}


def goss_polys(field, N):
    """G_1..G_N for the Carlitz lattice, e(x) = sum_i x^(q^i)/D_i: a list
    indexed 1..N of RF coefficient lists from goss_recursion, cached per
    (field, N).  The tests check it against the exponential generating
    identity.  The recursion reads only the steps with q^i < N."""
    if N < 1:
        raise ValueError("k must be positive")
    key = (id(field), N)
    cached = _goss_cache.get(key)
    if cached is None:
        q = field.order
        count = next(i for i in range(1, N + 1) if q ** i >= N)
        steps = [(q ** i, RF.from_pol(d).inverse()) for i, d
                 in enumerate(carlitz_factorials(field, count))]
        cached = _goss_cache[key] = goss_recursion(steps, N, RF.zero(field))
    return cached
