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


def carlitz_coeffs(a, memo=None):
    """Coefficients [a]_0..[a]_{deg a} with C_a(x) = sum [a]_i x^(q^i),
    each in A = F_q[theta]; callers must not mutate the list.

    One Horner step from the list of a's prefix b = a div theta, as
    C_(theta*b + c) = theta*C_b + C_b^q + c (Carlitz, Duke Math. J. 1,
    1935): [a]_0 = a, [a]_i = theta*[b]_i + [b]_(i-1)^q for 0 < i < d and
    [a]_d = [b]_(d-1)^q.  The lists built are kept in memo (a context's
    ``carlitz``, keyed by a.c) when one is given.
    """
    if memo is None:
        memo = {}
    out = memo.get(a.c)
    if out is None:
        field = a.field
        out = [a]
        if a.degree > 0:
            prev = carlitz_coeffs(Pol(field, a.c[1:]), memo)
            frob = [b.frob_power(field.n) for b in prev]  # q = p^n
            # theta*[b]_i shifts the coefficients of [b]_i up by one
            out += [Pol(field, (0,) + b.c) + f
                    for b, f in zip(prev[1:], frob)] + frob[-1:]
        memo[a.c] = out
    return out


class TorsionContext:
    """Carlitz n-torsion ring for a square-free monic modulus.

    One ring generator lambda_i per prime factor p_i, with relation
    Phi_{p_i}(x) = C_{p_i}(x)/x; the composite generator lambda_n is
    assembled by partial fractions.  An optional constant-field extension
    degree D replaces F_q by F_{q^D} (needed once character roots enter).
    Memos ``powers``, ``_relation``, ``gauss`` (g(chi) per character chi),
    ``u_az`` (see series.u_of_az) and ``twist_sums`` (normalized_sums)
    hold ring elements only, and ``carlitz`` (carlitz_coeffs' lists per
    a.c) holds Pols, so they die with it; a reduced context (see
    _reductions) has its own.
    """

    __slots__ = ("field", "big", "emb", "modulus", "primes", "ring",
                 "gens", "_cofs", "_exp_cache", "_powers", "_relations",
                 "gauss", "u_az", "twist_sums", "carlitz")

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
        self._exp_cache, self._powers, self._relations = {}, {}, {}
        self.gauss, self.u_az, self.twist_sums, self.carlitz = {}, {}, {}, {}

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
        ([beta*c_i mod p_i]_j, lambda_i^(q^j)), the powers from self.powers
        (annihilator p_i: j < deg p_i, so none from the relation).
        """
        beta = beta % self.modulus
        key = beta.c
        cached = self._exp_cache.get(key)
        if cached is not None:
            return cached
        q = self.field.order
        pairs = []
        for gen, c, prime in zip(self.gens, self._cofs, self.primes):
            coeffs = carlitz_coeffs(beta * c % prime, self.carlitz)
            pows = self.powers(gen, q ** (len(coeffs) - 1) + 1, None, prime)
            pairs += [(self.lift_poly(a), pows[q ** j])
                      for j, a in enumerate(coeffs) if a]
        out = self.ring.dot(pairs)
        self._exp_cache[key] = out
        return out

    def powers(self, x, count, cls=None, n=None):
        """[1, x, ..., x^(count-1)] for a ring element x, or a longer list
        of the same powers, None where one was not asked for yet; callers
        must not mutate it.  Kept per value of x.  With a class cls only
        the x^j, j = cls mod q-1, are asked for: x^(j-q+1) * x^(q-1) each.
        With an annihilator n (C_n(x) = 0, d = deg n) each x^j, j >= q^d,
        is one dot of scalar pairs (-[n]_i, x^(j-q^d+q^i)), i < d, in j's
        class.  A plain request (neither; the others read monic residues,
        which share no orbit) first extends a short list from the kept
        list of an F_q^*-multiple y = c*x, where longer, by x^j = c^(-j) *
        y^j.  Any power still missing is one ring.power_step, so no power
        but x and x^(q-1) keeps the column cache its product read."""
        ring, q, step = self.ring, self.field.order, self.field.order - 1
        pows = self._powers.setdefault(x.coords, [ring.one])
        if cls is None and n is None and len(pows) < count:
            f, emb = self.field, self.emb
            for c in range(2, q):
                ys = self._powers.get(x.scale_const(emb[c]).coords, ())
                pows += [y and y.scale_const(emb[f.pow(c, -j)]) for j, y
                         in enumerate(ys[len(pows):count], len(pows))]
        pows += [None] * (count - len(pows))
        # the plain chain below top; past it only cls's class, by x^(q-1)
        top = count if cls is None else q if count > cls + step else cls + 1
        size, rel = count, ()
        if n is not None:
            size = q ** n.degree
            rel = [(q ** i - size, c)
                   for i, c in enumerate(self._relation(n)[:-1]) if c]
        for j in range(1, count):
            if pows[j] is None and (j < top or (j - cls) % step == 0):
                if j >= size:
                    pows[j] = ring.dot([(c, pows[j + o]) for o, c in rel])
                elif j < top:
                    pows[j] = ring.power_step(pows[j - 1], x)
                else:
                    pows[j] = ring.power_step(pows[j - step], pows[step])
        return pows

    def _relation(self, n):
        """-[n]_0, ..., -[n]_(deg n) lifted once per context and monic n:
        C_n(x) = 0 gives x^(q^d) = sum_{i<d} -[n]_i x^(q^i), d = deg n."""
        rel = self._relations.get(n.c)
        if rel is None:
            rel = self._relations[n.c] = [
                -self.lift_poly(c) for c in carlitz_coeffs(n, self.carlitz)]
        return rel

    def torsion_cofactor(self, level):
        """The function lam -> level/lam, integral, on primitive
        level-torsion values: C_level(lam)/lam = 0 gives level/lam =
        -sum_{j>=1} [level]_j lam^(q^j-2), the powers of class -1."""
        q = self.field.order
        rel = [(q ** j - 2, c)
               for j, c in enumerate(self._relation(level)) if j and c]
        count = q ** level.degree - 1

        def cofactor(lam):
            pows = self.powers(lam, count, -1 % (q - 1))
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
