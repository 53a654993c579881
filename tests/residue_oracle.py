"""The image of an exact torsion-ring element in a residue field, read off
its packed numerator slot by slot.  An oracle for the reduced contexts of
TorsionContext._reductions, which build the same values in the field."""


def evaluator(ring, field, emb, alpha, roots):
    """The map from a QuotientRing into a finite field sending theta to
    alpha, generator i to roots[i] and a constant code c to emb[c], as a
    function from an element to its image code.  It is a ring homomorphism
    when each roots[i] is a root of relation i at alpha."""
    add, mul = field.add_table, field.mul_table
    ybasis = [emb[ring.field.p ** j] for j in range(ring.field.n)]
    # weights[slot]: the image of the slot's unit, digit by digit
    weights = []
    for exps in ring._exps:
        m = 1
        for r, e in zip(roots, exps):
            m = mul[m][field.pow(r, e)]
        weights.extend(mul[m][y] for y in ybasis)
    tn = ring._tn

    def image(x):
        raw = x.num.to_bytes((x.num.bit_length() + 7) >> 3, "little")
        while len(weights) < len(raw):  # one more power of theta
            weights.extend(mul[w][alpha] for w in weights[-tn:])
        acc = 0
        for d, w in zip(raw, weights):
            if d:
                acc = add[acc][mul[d][w]]
        return acc
    return image


def first_reduced(ctx):
    """The first reduced context of ctx, or None when it has no point."""
    return next(ctx._reductions(), None)


def point_of(red):
    """(T, emb, alpha, roots) of a reduced context: theta -> alpha,
    generator i -> roots[i], a big-field code c -> emb[c]."""
    ring = red.ring
    return ring.field, ring.emb, ring.alpha, ring.roots


def point_image(ctx, red=None):
    """evaluator at the point of red, a reduced context of ctx, by default
    its first."""
    return evaluator(ctx.ring, *point_of(red if red is not None
                                         else first_reduced(ctx)))


def value_images(image, field, f):
    """The codes in field, image's residue field, of the values of f, a
    series of the exact context: each numerator's image over the image of
    f's den, which must not vanish there."""
    inv = 1 if f.den is None else field.inv(image(f.ctx.ring.from_pol(f.den)))
    return [field.mul(image(c), inv) for c in f.nums]
