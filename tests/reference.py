"""Reference computations the tests share. Each reads the ring's tables as
data and sums in Fractions, calling no kernel of the program."""

from fractions import Fraction


def product_inner(x, y) -> Fraction:
    """<x, y> for two product-ring elements under the block-diagonal Gram
    form: per factor, the sum of x_i * gram[i][j] * y_j over its coordinates."""
    total = Fraction(0)
    for xe, ye in zip(x.parts, y.parts):
        gram = xe.ring.gram
        for i, a in enumerate(xe.coords):
            for j, b in enumerate(ye.coords):
                total += a * gram[i][j] * b
    return total
