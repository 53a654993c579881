"""Character twists, delta-sums, and Hecke operators.

The matrix slash actions never appear at runtime: their scalars are
collapsed into the two hard-coded formulas
    T_q f = psi(q) q^k f(qz) + sum_beta f((z+beta)/q)
    twist_raw(f) = n^(2m-k) sum_beta chi^{-1}(beta) f(z + beta/n).
The twist's beta-sum is linear in the shift u -> u/(lambda_beta u + 1), so
it is one shift_by_sums by the power sums sum_beta chi^{-1}(beta)
lambda_beta^j (characters.power_sums, an orbit sum over monic beta), not
one shift per residue; the normalized twist's sums carry g(chi^{-1})
(normalized_sums).  A twist's conductor power with a negative exponent is
one series denominator (UExpansion.over), so no coefficient is a fraction.
The Hecke beta-sum is a Goss sum of ker C_q (hecke_u).
"""

from .algebra import (Pol, QuotientRing, is_irreducible, lucas_binomial,
                      monics_up_to_degree)
from .carlitz import carlitz_coeffs, goss_recursion
from .characters import gauss_thakur, power_sums
from .errors import LevelPrime, NotPrimitive, Unsupported
from .series import (AExpansion, ModularMeta, TwistedEisenstein, UExpansion,
                     combination, rescale_arg, shift_by_sums)


def _modulus_power(ctx, m, e):
    """m^e as a ring element; m^-e is a series den (UExpansion.over)."""
    if e < 0:
        raise Unsupported("m^%d is not integral" % e)
    return ctx.lift_poly(m ** e)


def neben_eval(neben, a, ctx):
    """Evaluate a nebentypus (None, a character, or a product tuple) at a,
    as a constant code in the context's big field."""
    if neben is None:
        return 1
    if isinstance(neben, tuple):
        out = 1
        for part in neben:
            out = ctx.big.mul(out, neben_eval(part, a, ctx))
        return out
    return ctx.char_value(neben, a)


def _character_shift_sum(f, chi, sums):
    """sum_beta w(beta) f(z + beta/n), w a multiple of chi^{-1}, from
    sums[j] = sum_beta w(beta) lambda_beta^j; carries the twisted metadata."""
    if f.meta is None:
        raise ValueError("twisting needs weight/type metadata")
    n = chi.conductor
    k, m = f.meta.weight, f.meta.type_
    out = shift_by_sums(f, sums)
    neben = f.meta.neben
    newneben = (neben, chi, chi) if neben is not None else (chi, chi)
    level = n * n if f.meta.level is None else f.meta.level.lcm(n * n)
    meta = ModularMeta(k, m + chi.sign, level, newneben)
    return out.with_meta(meta)


def twist_raw(f, chi, ctx):
    """The projection pi-hat_chi: n^(2m-k) * sum_beta chi^{-1}(beta)
    f(z + beta/n); for 2m - k < 0 the sum over the series denominator
    n^(k-2m)."""
    sums = power_sums(ctx, ctx.conductor_of(chi), range(f.prec - 1 or 1), chi)
    out = _character_shift_sum(f, chi, sums)
    e = 2 * f.meta.type_ - f.meta.weight
    if e < 0:
        return out.over(chi.conductor ** -e)
    return out.scale(_modulus_power(ctx, chi.conductor, e))


def normalized_sums(chi, ctx, count):
    """[g(chi^{-1}) * s(chi, j) for j < count] or a longer list, kept in
    ctx.twist_sums per chi, so g scales each sum once; integral, as the 1/n
    of the normalized twists is their series den.  Do not mutate it."""
    if not chi.is_primitive():
        raise NotPrimitive("normalized twists need a primitive character")
    sums = ctx.twist_sums.get(chi, [])
    if len(sums) < count:
        g = gauss_thakur(chi.inverse(), ctx)
        sums = ctx.twist_sums[chi] = sums + [
            s * g if s else s for s in
            power_sums(ctx, chi.conductor, range(len(sums), count), chi)]
    return sums


def twist_normalized(f, chi, ctx):
    """pi_chi := n^(k-2m-1) g(chi^{-1}) pi-hat_chi.  The conductor powers
    cancel to 1/n, so the beta-sum runs on the sums of normalized_sums,
    which carry g(chi^{-1}), over the series denominator n."""
    sums = normalized_sums(chi, ctx, f.prec - 1 or 1)
    return _character_shift_sum(f, chi, sums).over(chi.conductor)


def twist_monomial_closed(i, chi, ctx, N):
    """Closed form of pi_chi(u^i):
    u^i * sum over l >= 1 congruent to s_chi mod q-1 of
    binom(-i, l) * g(chi^{-1}) * s(chi, l) * u^l, over the series
    denominator n."""
    if i < 1:
        raise ValueError("monomial exponent must be positive")
    q = ctx.field.order
    p = ctx.field.p
    sums = normalized_sums(chi, ctx, N - i)
    out = [ctx.ring.zero] * N
    for l in range(chi.sign or q - 1, N - i, q - 1):
        b = lucas_binomial(-i, l, p)
        if b:
            out[i + l] = sums[l].scale_const(b)
    return UExpansion(ctx, out, N).over(chi.conductor)


def hecke_u(f, qpol, ctx):
    """T_q on a u-expansion with metadata; output precision prec // |q|.

    The beta-sum in closed form, by Goss polynomials of the lattice
    L = ker C_q (Gekeler, Invent. Math. 93, 1988): e_L(x) = C_q(x)/q, and
    x = e(z/q) has C_q(x) = 1/u, so sum_beta u((z+beta)/q)^n =
    sum_{l in L} (x+l)^(-n) = G_{n,L}(qu) = H_n(u) in A[X]: the
    carlitz.goss_recursion of c_i = [q]_i, cut to prec // |q| coefficients.
    The a_0 term has |q| = 0 summands, and H_n starts at u^ceil(n/|q|), so
    no n >= prec reaches the output.  T_q is linear, so it runs on f's
    numerators and keeps f's den.  The result is verified to be free of
    the q-torsion generator, and any residue signals a bug.
    """
    if f.meta is None or f.meta.weight is None:
        raise ValueError("Hecke operators need weight metadata")
    if f.ctx is not ctx:
        raise ValueError("expansion must live in the given torsion ring")
    if not isinstance(ctx.ring, QuotientRing):
        raise Unsupported("T_q on a reduced context: a residue has no "
                          "q-torsion generator to check the output against")
    qidx = ctx.primes.index(qpol)
    size = ctx.field.order ** qpol.degree
    Nout = f.prec // size
    if Nout < 1:
        raise ValueError("precision %d too small for |q| = %d" % (f.prec, size))
    qk = ctx.lift_poly(qpol ** f.meta.weight).scale_const(
        neben_eval(f.meta.neben, qpol, ctx))
    steps = [(ctx.field.order ** i, c)
             for i, c in enumerate(carlitz_coeffs(qpol)) if c]
    H = goss_recursion(steps, f.prec - 1, Pol.zero(ctx.field), Nout)
    zero = ctx.ring.zero
    out = combination(ctx, [(qk, rescale_arg(f.truncate(Nout), qpol).nums)]
                      + [(a, UExpansion(ctx, [ctx.lift_poly(h) if h else zero
                                              for h in H[n]], Nout).coeffs)
                         for n, a in enumerate(f.nums) if n and a],
                      Nout, f.meta, f.den)
    for n, c in enumerate(out.nums):
        if not c.exponent_free(qidx):
            raise RuntimeError("Hecke output not free of the q-torsion "
                               "generator at u^%d" % n)
    return out


def hecke_a_rule(F, qpol):
    """T_q's rule on an A-expansion, q a monic prime: c'_a = q^g c_a, or
    q^k psi(q) c_{a/q} where q | a (g the Goss index, k the weight), as q^g,
    q^k psi(q) and [(a, a/q or None)] for monic a, deg a <= bound - deg q."""
    if not (qpol.is_monic() and is_irreducible(qpol)):
        raise ValueError("T_q needs a monic prime q, not %s" % qpol.format())
    ctx = F.ctx
    newbound = F.bound - qpol.degree
    if newbound < 0:
        raise ValueError("degree bound too small for this Hecke prime")
    quots = {(qpol * b).c: b for b in
             monics_up_to_degree(ctx.field, newbound - qpol.degree)}
    qk = ctx.lift_poly(qpol ** F.weight).scale_const(
        neben_eval(F.neben, qpol, ctx))
    return (ctx.lift_poly(qpol ** F.index), qk,
            [(a, quots.get(a.c))
             for a in monics_up_to_degree(ctx.field, newbound)])


def hecke_a(F, qpol):
    """T_q on an A-expansion, by hecke_a_rule."""
    qg, qk, walk = hecke_a_rule(F, qpol)
    coeffs = {}
    for a, b in walk:
        c, scale = (F.coefficient(b), qk) if b else (F.coefficient(a), qg)
        coeffs[a.c] = c * scale if c else F.ctx.ring.zero
    return AExpansion(F.ctx, F.kind, F.index, F.weight, F.type_, coeffs,
                      F.bound - qpol.degree, F.neben)


def hecke_twisted(T, qpol):
    """T_q on a twisted Eisenstein object: component re-indexing
    a -> qa mod p with scalar q^k."""
    ctx = T.ctx
    ppol = T.level
    if qpol.gcd(ppol) != Pol.one(ctx.field):
        raise LevelPrime("T_q is undefined at the level prime")
    qk = ctx.lift_poly(qpol ** T.k)
    comp = {}
    for akey, c in T.components.items():
        a = Pol(ctx.field, akey)
        target = (a * qpol) % ppol
        comp[target.c] = c * qk
    return TwistedEisenstein(ctx, T.k, T.chi, comp)


def delta_sum(F, npol, ctx):
    """The full residue-sum sum_delta f|[n delta; 0 n] on a power-type
    A-expansion: support moves to a*n (a coprime to n), scaled by n^i."""
    if F.kind != "power" or F.index > ctx.field.order:
        raise Unsupported("delta-sum needs a power-type expansion with i <= q")
    one = Pol.one(ctx.field)
    ni = ctx.lift_poly(npol ** F.index)
    coeffs = {}
    for a in monics_up_to_degree(ctx.field, F.bound - npol.degree):
        c = F.coefficient(a)
        if c and a.gcd(npol) == one:
            coeffs[(a * npol).c] = c * ni
    return AExpansion(ctx, "power", F.index, F.weight, F.type_, coeffs,
                      F.bound, F.neben)
