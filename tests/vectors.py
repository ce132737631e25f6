"""Boxed vector helpers for the tests: tuples of Scalars, built and
combined one Scalar operation at a time."""


def vector(domain, items) -> tuple:
    return tuple(domain.scalar(x) for x in items)


def unit_vector(domain, n: int, i: int) -> tuple:
    return tuple(domain.one() if j == i else domain.zero() for j in range(n))


def vec_add(u, v) -> tuple:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_scale(k, v) -> tuple:
    """Left scalar multiple k*v."""
    return tuple(k * a for a in v)
