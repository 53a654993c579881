"""Catalog of named forms, eigen-system verification, congruence checks,
the twisted Eisenstein identities and the Eisenstein rank count.

All Eisenstein objects are stored with the transcendental period factored
out: EHat is the A-expansion sum_c chi^{-1}(c) G_k(u(cz)) and ETilde is the
twisted component object sum_a chi^{-1}(a) E_(0,a); identities originally
stated with period powers are restated with the exactly equivalent scalar
g(chi^{-1})/p at the coefficient level.
"""

import json

from .algebra import Pol, REl, Residue, monics_up_to_degree, row_echelon
from .carlitz import TorsionContext
from .characters import DirichletCharacter
from .errors import NotReducible, SignMismatch, Unsupported
# moebius_of_series is not called here; it stays bound because
# bench/test_bench.py checks that the tracer rewraps it in this module.
from .series import (AExpansion, TwistedEisenstein, UExpansion,
                     bound_for_precision, eisenstein_components, fold_units,
                     goss_coeffs_in, moebius_of_series, poly_eval_series,
                     rescale_arg, u_of_az)
from .operators import (gauss_over_conductor, hecke_a, hecke_twisted, hecke_u,
                        twist_normalized)


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
    q = ctx.field.order
    if (chi.sign + k) % (q - 1) != 0:
        raise SignMismatch("need s_chi = -k mod q-1 (got s=%d, k=%d)"
                           % (chi.sign, k))
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
    """sum_a chi^{-1}(a) G_k(1/lambda_a) over units a mod the conductor.

    Asserted nonzero and asserted to span the chi-eigenline of the Galois
    action lambda -> C_b(lambda); either failure is a genuine bug.
    """
    T = TwistedEisenstein.build(ctx, k, chi)
    val = T.constant_term()
    if not val:
        raise RuntimeError("constant term vanished for %r, k=%d" % (chi, k))
    for b in ctx.units(chi.conductor):
        if ctx.galois(b)(val) != val.scale_const(ctx.char_value(chi, b)):
            raise RuntimeError("constant term is not a chi-eigenvector "
                               "at b = %s" % b.format())
    return val


# -- eigen-system verification ---------------------------------------------

def verify_eigensystem(form, qlist, expected, N):
    """Check T_q form = expected(q) * form for each q, with the engine
    picked by the object's type (A-expansion, twisted Eisenstein object, or
    u-expansion).  expected maps a monic prime to a ring scalar."""
    params = {"object": type(form).__name__,
              "primes": [q.format() for q in qlist], "N": N}
    witness = None
    passed = True
    for qpol in qlist:
        if isinstance(form, AExpansion):
            got = hecke_a(form, qpol)
            want = form.scaled_by(expected(qpol))
            bad = _first_coeff_mismatch(form.ctx, got, want)
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


def _first_coeff_mismatch(ctx, F, G):
    for a in monics_up_to_degree(ctx.field, min(F.bound, G.bound)):
        if F.coefficient(a) != G.coefficient(a):
            return "a = %s" % a.format()
    return None


# -- congruence checks -----------------------------------------------------

def _scalar_divisible(x, zeta):
    """x must involve no torsion generator and be a polynomial in theta
    vanishing at theta = zeta."""
    if not x.is_scalar():
        return "not free of the torsion generators"
    rf = x.scalar_part()
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
        R = twisted_eis(ctx, chi, 1).render(N)
        scalar = gauss_over_conductor(chi, ctx)
        diff = ((rescale_arg(R, ppol) - R).scale(scalar)
                - twist_normalized(fs.render(N), chi, ctx))
    else:
        raise ValueError("kind must be 'SF' or 'TwistedSF'")
    witness = None
    for n in range(diff.prec):
        why = _scalar_divisible(diff.coeff(n), zeta)
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
    R = twisted_eis(ctx, chi, k).render(N)
    rhs = (rescale_arg(R, ppol) - R).scale(gauss_over_conductor(chi, ctx))
    m = min(lhs.prec, rhs.prec)
    d = lhs.difference(rhs)
    params = {"p": ppol.format(), "k": k, "chi": repr(chi), "N": N}
    return VerificationReport("ehat-twist", params, m, d is None, d)


# -- Eisenstein rank -------------------------------------------------------

def matrix_rank(rows):
    """Rank of a matrix of torsion-ring elements (the ring must be a field)
    by forward elimination."""
    return len(row_echelon([list(r) for r in rows if any(r)], REl.invert))


def certified_rank(ctx, build):
    """Rank of the rows build(ctx) over ctx's ring (a field), certified in
    a residue field where it can be.

    build runs first on ctx.reduced(), over T = A/Q.  Reduction is a ring
    homomorphism, so those rows are the images of the exact rows, and full
    rank over T proves full rank.  A shortfall over T proves nothing (Q may
    divide every maximal minor), so then, with no residue field, and when
    a value has no image in T (NotReducible), the answer is the exact
    matrix_rank(build(ctx)).
    """
    red = ctx.reduced()
    if red is not None:
        try:
            rows = [list(row) for row in build(red)]
            if len(row_echelon(rows, Residue.invert)) == len(rows):
                return len(rows)
        except NotReducible:
            pass
    return matrix_rank(build(ctx))


def eisenstein_rows(ctx, k, N):
    """The ETilde and EHat rows of eisenstein_rank over ctx, exact or
    reduced, for an irreducible level p: the coefficients u^0..u^(N-1) of
    both series for each character chi with the matching sign.

    Both rows are character-independent series computed once and combined
    per character with |units| scalings: the ETilde row from the E_a at
    monic units a, with chi^{-1} folded onto them by fold_units, and the
    EHat row as sum_r chi^{-1}(r) B_r over the units r mod p, with
    B_r = sum_{c monic, c = r mod p} G_k(u(cz)).
    """
    ppol = ctx.modulus
    field = ppol.field
    q = field.order
    size = q ** ppol.degree
    chis = [DirichletCharacter.from_conductor(ppol, e, big=ctx.big)
            for e in range(size - 1) if (e + k) % (q - 1) == 0]
    bound = bound_for_precision(field, N)
    units = ctx.units(ppol)
    comps = eisenstein_components(ctx, k, ppol, N)
    gk = goss_coeffs_in(ctx, k)
    buckets = {r.c: UExpansion.zero(ctx, N) for r in units}
    for c in monics_up_to_degree(field, bound):
        r = (c % ppol).c
        if r in buckets and q ** c.degree < N:
            buckets[r] += poly_eval_series(gk, u_of_az(ctx, c, N))
    rows = []
    for chi in chis:
        inv = {r.c: chi.eval_inv(r) for r in units}
        w = fold_units(ctx, k, ppol,
                       {r: ctx.big_const(v) for r, v in inv.items()})
        tilde = hat = UExpansion.zero(ctx, N)
        for akey, E in comps.items():
            tilde = tilde + E.scale(w[akey])
        for r, B in buckets.items():
            hat = hat + B.scale_const(inv[r])
        rows.append(tilde.coeffs)
        rows.append(hat.coeffs)
    return rows


def eisenstein_rank(ppol, k, N):
    """Rank of the span of {ETilde_chi^(k), EHat_chi^(k)} over all chi with
    the matching sign, from truncated u-expansions; expected value
    2(|p|-1)/(q-1), which is also the number of rows.  The level p must be
    irreducible.

    The rank is certified_rank of eisenstein_rows: the rows are built and
    ranked over the residue field T = A/Q, where full rank proves full
    rank over the torsion field, and only a shortfall over T, or a value
    with no image there, builds the exact rows for matrix_rank.  A rank
    below the row count may only mean that the precision N is too low.
    """
    ctx = TorsionContext(ppol, ext_degree=ppol.degree)
    if len(ctx.primes) > 1:
        raise Unsupported("the Eisenstein count needs an irreducible level, "
                          "not %s" % "".join("(%s)" % f.format()
                                             for f in ctx.primes))
    return certified_rank(ctx, lambda c: eisenstein_rows(c, k, N))
