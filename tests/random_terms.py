"""Seeded random QF_BV term generation shared by the property tests."""

from repro.smt import terms as T


def random_term(rng, variables, width, depth):
    """Random bitvector term over ``variables`` (all of ``width``)."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return rng.choice(variables)
        return T.bv(rng.randrange(1 << width), width)
    op = rng.choice(
        ["add", "sub", "mul", "udiv", "urem", "and", "or", "xor",
         "shl", "lshr", "ashr", "not", "neg", "zext_extract", "sext_extract",
         "ite"]
    )
    a = random_term(rng, variables, width, depth - 1)
    if op == "not":
        return T.not_(a)
    if op == "neg":
        return T.neg(a)
    if op == "zext_extract":
        return T.extract(T.zext(a, 4), width - 1, 0)
    if op == "sext_extract":
        return T.extract(T.sext(a, 4), width - 1, 0)
    b = random_term(rng, variables, width, depth - 1)
    if op == "ite":
        cond = T.ult(a, b)
        c = random_term(rng, variables, width, depth - 1)
        return T.ite(cond, b, c)
    ctor = {
        "add": T.add, "sub": T.sub, "mul": T.mul, "udiv": T.udiv,
        "urem": T.urem, "and": T.and_, "or": T.or_, "xor": T.xor,
        "shl": T.shl, "lshr": T.lshr, "ashr": T.ashr,
    }[op]
    return ctor(a, b)
