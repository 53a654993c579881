"""Catalog of named forms, eigen-system verification, congruence checks,
the twisted Eisenstein identities and the Eisenstein rank count.

All Eisenstein objects are stored with the transcendental period factored
out: EHat is the A-expansion sum_c chi^{-1}(c) G_k(u(cz)) and ETilde is the
twisted component object sum_a chi^{-1}(a) E_(0,a); identities originally
stated with period powers are restated with the exactly equivalent scalar
g(chi^{-1})/p at the coefficient level, its 1/p a series denominator.
"""

import json

from .algebra import RF, Pol, Residue, monics_up_to_degree, row_echelon
from .carlitz import TorsionContext
from .characters import DirichletCharacter, gauss_thakur
from .errors import NotReducible, Unsupported
# moebius_of_series is not called here; it stays bound because
# bench/test_bench.py checks that the tracer rewraps it in this module.
from .series import (AExpansion, TwistedEisenstein, UExpansion,
                     bound_for_precision, combination, eisenstein_components,
                     goss_coeffs_in, moebius_of_series, poly_eval_series,
                     require_sign, rescale_arg, u_of_az)
from .operators import hecke_a_rule, hecke_twisted, hecke_u, twist_normalized


# -- catalog builders ------------------------------------------------------

def petrov_fs(ctx, s, bound):
    """The single-power-term cusp form family: c_a = a^(1+s(q-1)),
    weight 2+s(q-1), type 1.  s = 0 is rejected: that degenerate case is
    the quasi-modular false Eisenstein series, not a modular form."""
    if s < 1:
        raise ValueError("s must be >= 1 (s = 0 is only quasi-modular)")
    q = ctx.field.order
    e = 1 + s * (q - 1)
    return AExpansion.from_rule(ctx, "power", 1, 2 + s * (q - 1), 1,
                                lambda a: ctx.lift_poly(a ** e), bound)


def delta(ctx, bound):
    """The discriminant: c_a = a^(q(q-1)), index q-1, weight q^2-1,
    type q-1."""
    q = ctx.field.order
    return AExpansion.from_rule(ctx, "power", q - 1, q * q - 1, q - 1,
                                lambda a: ctx.lift_poly(a ** (q * (q - 1))),
                                bound)


def false_eisenstein(ctx, bound):
    """The quasi-modular series E: c_a = a, weight 2, type 1."""
    return AExpansion.from_rule(ctx, "power", 1, 2, 1,
                                lambda a: ctx.lift_poly(a), bound)


def eisenstein_ep(ctx, ppol, bound):
    """E_p := E(z) - p E(pz) in closed form: c_a = a on monics coprime to p,
    0 on multiples; weight 2, type 1, level p."""
    one = Pol.one(ctx.field)

    def rule(a):
        if a.gcd(ppol) != one:
            return ctx.ring.zero
        return ctx.lift_poly(a)
    return AExpansion.from_rule(ctx, "power", 1, 2, 1, rule, bound)


def fricke_eis(ctx, chi, k, bound):
    """EHat: the Goss-type A-expansion sum_c chi^{-1}(c) G_k(u(cz)) with the
    coefficient vanishing on multiples of the conductor made explicit (the
    trivial character would otherwise contribute there); weight k, type k,
    nebentypus chi^{-1}."""
    require_sign(chi, k)
    ppol = chi.conductor
    one = Pol.one(ctx.field)
    inv = chi.inverse()

    def rule(c):
        if c.gcd(ppol) != one:
            return ctx.ring.zero
        v = ctx.char_value(inv, c)
        if not v:
            return ctx.ring.zero
        return ctx.big_const(v)
    return AExpansion.from_rule(ctx, "goss", k, k, k, rule, bound,
                                neben=chi.inverse())


def twisted_eis(ctx, chi, k):
    """ETilde: the component object sum_a chi^{-1}(a) E_(0,a) of weight k."""
    return TwistedEisenstein.build(ctx, k, chi)


def etilde_difference(ctx, chi, k, N):
    """(g(chi^{-1})/p)(ETilde^(k)(pz) - ETilde^(k)(z)) to precision N, p the
    conductor of chi, over the series denominator p."""
    R = twisted_eis(ctx, chi, k).render(N)
    return (rescale_arg(R, chi.conductor) - R).scale(
        gauss_thakur(chi.inverse(), ctx)).over(chi.conductor)


# -- reports ---------------------------------------------------------------

class VerificationReport:
    """Outcome of one exact identity check; deterministic per parameters."""

    __slots__ = ("identity", "params", "precision", "passed", "witness")

    def __init__(self, identity, params, precision, passed, witness=None):
        self.identity = identity
        self.params = dict(params)
        self.precision = precision
        self.passed = bool(passed)
        self.witness = witness

    def __bool__(self):
        return self.passed

    def to_dict(self):
        return {"identity": self.identity, "params": self.params,
                "precision": self.precision, "pass": self.passed,
                "witness": self.witness}

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)

    def __repr__(self):
        return self.to_json()


# -- constant terms --------------------------------------------------------

def eis_constant_term(chi, k, ctx):
    """sum_a chi^{-1}(a) G_k(1/lambda_a) over units a mod the conductor, as
    (numerator, den), the numerator asserted nonzero and asserted to span
    the chi-eigenline of the Galois action lambda -> C_b(lambda), which
    fixes den; either failure is a genuine bug.
    """
    T = TwistedEisenstein.build(ctx, k, chi)
    val, den = T.constant_term()
    if not val:
        raise RuntimeError("constant term vanished for %r, k=%d" % (chi, k))
    for b in ctx.units(chi.conductor):
        if ctx.galois(b)(val) != val.scale_const(ctx.char_value(chi, b)):
            raise RuntimeError("constant term is not a chi-eigenvector "
                               "at b = %s" % b.format())
    return val, den


# -- eigen-system verification ---------------------------------------------

def verify_eigensystem(form, qlist, expected, N):
    """Check T_q form = expected(q) * form for each q, with the engine
    picked by the object's type (A-expansion, twisted Eisenstein object, or
    u-expansion).  expected maps a monic prime to a ring scalar.  On an
    A-expansion, c_a q^g != lam c_a exactly when c_a d != 0, d = q^g - lam,
    so the check decides lam = q^g and c_{qb} lam = q^k psi(q) c_b: that the
    coefficient rule is multiplicative, not a u-level eigen check."""
    params = {"object": type(form).__name__,
              "primes": [q.format() for q in qlist], "N": N}
    witness = None
    passed = True
    for qpol in qlist:
        if isinstance(form, AExpansion):
            bad = _eigen_mismatch(form, qpol, expected(qpol))
        elif isinstance(form, TwistedEisenstein):
            got = hecke_twisted(form, qpol)
            want = form.scaled_by(expected(qpol))
            bad = None
            for key in want.components:
                if got.components.get(key) != want.components[key]:
                    bad = "component %s" % Pol(form.ctx.field, key).format()
                    break
        elif isinstance(form, UExpansion):
            size = form.ctx.field.order ** qpol.degree
            got = hecke_u(form, qpol, form.ctx)
            want = form.scale(expected(qpol)).truncate(form.prec // size)
            bad = got.difference(want)
        else:
            raise TypeError("no Hecke engine for %r" % type(form))
        if bad is not None:
            passed = False
            witness = "q=%s at %s" % (qpol.format(), bad)
            break
    return VerificationReport("eigensystem", params, N, passed, witness)


def _eigen_mismatch(form, qpol, lam):
    """The first a that T_q keeps where (T_q form)_a != lam c_a, or None."""
    qg, qk, walk = hecke_a_rule(form, qpol)
    d = qg - lam
    for a, b in walk:
        if (form.coefficient(b) * qk != form.coefficient(a) * lam if b
                else d and (c := form.coefficient(a)) and c * d):
            return "a = %s" % a.format()
    return None


# -- congruence checks -----------------------------------------------------

def _scalar_divisible(x, inv_den, zeta):
    """The value x/den (inv_den the RF 1/den, None for den 1) must be free of
    the torsion generators, as exactly when x is, and its scalar coordinate,
    x's over den, a polynomial in theta vanishing at theta = zeta; x's own
    vanishes there whenever den is the conductor."""
    if not x.is_scalar():
        return "not free of the torsion generators"
    rf = x.scalar_part()
    if inv_den is not None:
        rf = rf * inv_den
    if not rf:
        return None
    if not rf.is_pol():
        return "not integral in theta"
    if rf.num.eval(zeta) != 0:
        return "not divisible by (theta - zeta)"
    return None


def congruence_check(kind, ppol, s, N):
    """The weight-(2+s(q-1)) congruences mod (theta - zeta).

    kind "SF":        EHat_{chi_{p,s}}^{(1)} - f_s has every u-coefficient
                      a polynomial in theta divisible by (theta - zeta).
    kind "TwistedSF": (g(chi^{-1})/p)(ETilde(pz) - ETilde(z)) - proj_chi f_s
                      is torsion-free and (theta - zeta)-divisible.
    Here chi_{p,s} = chi_zeta^(|p| - 2 - s(q-1)), requiring |p| > 2+s(q-1).
    """
    field = ppol.field
    q = field.order
    size = q ** ppol.degree
    if size <= 2 + s * (q - 1):
        raise ValueError("need |p| > 2 + s(q-1); got %d <= %d"
                         % (size, 2 + s * (q - 1)))
    ctx = TorsionContext(ppol, ext_degree=ppol.degree)
    e = size - 2 - s * (q - 1)
    chi = DirichletCharacter.from_conductor(ppol, e, big=ctx.big)
    zeta = chi.factors[0][1]
    bound = bound_for_precision(field, N)
    fs = petrov_fs(ctx, s, bound)
    params = {"kind": kind, "p": ppol.format(), "s": s, "N": N, "e": e}
    if kind == "SF":
        diff = fricke_eis(ctx, chi, 1, bound).render(N) - fs.render(N)
    elif kind == "TwistedSF":
        diff = (etilde_difference(ctx, chi, 1, N)
                - twist_normalized(fs.render(N), chi, ctx))
    else:
        raise ValueError("kind must be 'SF' or 'TwistedSF'")
    witness = None
    inv_den = diff.den and RF.from_pol(diff.den).inverse()
    for n, x in enumerate(diff.nums):
        why = _scalar_divisible(x, inv_den, zeta)
        if why is not None:
            witness = "u^%d: %s" % (n, why)
            break
    return VerificationReport("congruence", params, N, witness is None,
                              witness)


# -- the EHat twist identity -----------------------------------------------

def ehat_twist_identity(chi, k, ppol, N):
    """proj_chi(EHat^(k)) = (g(chi^{-1})/p) (ETilde^(k)(pz) - ETilde^(k)(z)),
    coefficient-exact in the p-torsion ring."""
    if chi.conductor != ppol:
        raise ValueError("character conductor must be the given prime")
    ctx = TorsionContext(ppol, ext_degree=ppol.degree)
    bound = bound_for_precision(ppol.field, N)
    lhs = twist_normalized(fricke_eis(ctx, chi, k, bound).render(N), chi, ctx)
    rhs = etilde_difference(ctx, chi, k, N)
    m = min(lhs.prec, rhs.prec)
    d = lhs.difference(rhs)
    params = {"p": ppol.format(), "k": k, "chi": repr(chi), "N": N}
    return VerificationReport("ehat-twist", params, m, d is None, d)


# -- Eisenstein rank -------------------------------------------------------

def matrix_rank(rows):
    """Rank of a matrix over the torsion ring of a prime level by
    fraction-free forward elimination: below a pivot p, a row with f in its
    column becomes p*row - f*top over its theta-content (divide_content),
    so entries do not grow.  The ring is a domain (Phi_p is irreducible
    over F(theta)), so each step keeps the rank; nothing is inverted."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is not None:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            p, *top = rows[rank][col:]
            for row in rows[rank + 1:]:
                if row[col]:
                    f = -row[col]
                    row[col:] = [p.ring.zero] + p.ring.divide_content(
                        [p.ring.dot(((a, p), (b, f)))
                         for a, b in zip(row[col + 1:], top)])
            rank += 1
    return rank


def certified_rank(ctx, build):
    """Rank of the rows build(ctx) over ctx's ring (a field), certified in
    a residue field where it can be.

    build runs on each reduced context of ctx in turn (see
    TorsionContext._reductions), over T = A/Q.  Reduction is a ring
    homomorphism, so those rows are the images of the exact rows, and full
    rank over T proves full rank.  A shortfall over T proves nothing (Q may
    divide every maximal minor), and a value with no image in T raises
    NotReducible; either way the next point is tried.  Only when no point
    up to RESIDUE_ORDER_MAX certifies is the answer the exact
    matrix_rank(build(ctx)).
    """
    for red in ctx._reductions():
        try:
            rows = [list(row) for row in build(red)]
        except NotReducible:
            continue
        if len(row_echelon(rows, Residue.invert)) == len(rows):
            return len(rows)
    return matrix_rank(build(ctx))


def eisenstein_rows(ctx, k, N):
    """The rank rows of eisenstein_rank over ctx, exact or reduced, for an
    irreducible level p: the coefficients u^0..u^(N-1) of p^k*D*E_a and of
    D*F_a, F_a = sum_{c = a mod p, c != 0} G_k(u(cz)), for each monic unit
    a (D = goss_den).  Nonzero scalars keep the rank, and integral rows
    reduce to the images of the exact ones.

    p^k*D*E_a is eisenstein_components' numerator.  D*F_a is one
    combination over the monic c: the nonzero c' = a mod p are the c/xi
    for monic c = xi*a mod p (xi in F_q^*), and
    G_k(u(cz/xi)) = xi^k G_k(u(cz)).
    """
    ppol, field = ctx.modulus, ctx.field
    q = field.order
    _, comps = eisenstein_components(ctx, k, ppol, N)
    gk = goss_coeffs_in(ctx, k)
    terms = {a: [] for a in comps}
    for c in monics_up_to_degree(field, bound_for_precision(field, N)):
        r = c % ppol
        if r and q ** c.degree < N:
            xi = r.leading()
            terms[r.monic().c].append(
                (ctx.big_const(ctx.emb[field.pow(xi, k)]),
                 poly_eval_series(gk, u_of_az(ctx, c, N)).coeffs))
    rows = []
    for a, E in comps.items():
        rows += [E.coeffs, combination(ctx, terms[a], N).coeffs]
    return rows


def eisenstein_rank(ppol, k, N):
    """Rank of the span of {ETilde_chi^(k), EHat_chi^(k)} over all chi with
    the matching sign, from truncated u-expansions; expected value
    2(|p|-1)/(q-1), the number of cusps of Gamma_1(p), which is also the
    number of rows.  The level p must be irreducible.

    No character is built: the rows are the E_a and F_a of eisenstein_rows,
    which span the same space.  The sign condition gives chi(xi) = xi^(-k)
    on F_q^*, so ETilde_chi = -sum_a chi^{-1}(a) E_a and EHat_chi =
    sum_a chi^{-1}(a) F_a over the monic units a.  The matrix
    [chi^{-1}(a)] is a diagonal matrix times the character table of
    (A/p)^*/F_q^*, whose order divides |p| - 1, so the characteristic does
    not divide it and the table is invertible.  Rank does not change under
    a field extension, so the rows are ranked over the torsion ring of F_q
    itself, with no extension degree.

    The rank is certified_rank of those rows: full rank over a residue
    field T = A/Q proves full rank over the torsion field, and only when
    no point certifies are the exact rows built for matrix_rank.  A rank
    below the row count may only mean that the precision N is too low.
    """
    ctx = TorsionContext(ppol)
    if len(ctx.primes) > 1:
        raise Unsupported("the Eisenstein count needs an irreducible level, "
                          "not %s" % "".join("(%s)" % f.format()
                                             for f in ctx.primes))
    return certified_rank(ctx, lambda c: eisenstein_rows(c, k, N))
