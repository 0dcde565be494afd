"""Quadratic characters chi_D and their sums by point counting.

For a monic squarefree D of odd degree d = 2g+1 the twisted prime power
sums s_k = sum over monic f of degree k of chi_D(f) Lambda(f) are point
sums on the curve y^2 = D(x):

    s_k = sum over x in F_(q^k) of chi_k(D(x)),

with chi_k the quadratic character of F_(q^k) (Rosen, Number Theory in
Function Fields, GTM 210).  Every D of a block is evaluated at every x of
F_(q^k) at once, by Horner's rule on the exp/log tables of
fqpoly.extension_field; every step is integer arithmetic, so each s_k is
exact.  The Euler product over a prime sieve, with residue symbols by
reciprocity descent, gives the same sums; it is a test oracle
(tests/charsum_oracle.py).
"""

from __future__ import annotations

import numpy as np

from .errors import ResourceLimitError, UnsupportedDegreeError
from .fqpoly import ENUMERATION_BUDGET, Poly, _squarefree_tuple, extension_field

_WORK = 1 << 18  # entries of a (block, points) array in one Horner pass


class Character:
    """chi(f) = (D/f) for a monic squarefree D of odd degree d = 2g+1."""

    def __init__(self, D: Poly):
        if not D.is_monic:
            raise ValueError(f"character modulus must be monic, got {D}")
        if not _squarefree_tuple(D.coeffs, D.q):
            raise ValueError(f"character modulus must be squarefree, got {D}")
        if D.degree % 2 == 0:
            raise UnsupportedDegreeError(
                f"deg D = {D.degree} is even; only odd degrees d = 2g+1 are supported "
                "(the even-degree ensemble is out of scope)"
            )
        self.D = D
        self.field = D.field
        self.d = D.degree
        self.g = (D.degree - 1) // 2

    @property
    def q(self) -> int:
        return self.field.q

    def __repr__(self):
        return f"Character(D={self.D}, q={self.q})"


def point_sums(chars: list[Character]) -> np.ndarray:
    """s_1..s_g of every character of a block of one field and degree, as
    an int64 (len(chars), g) array.

    Raises ResourceLimitError, before any table is built, when the largest
    field F_(q^g) has more than ENUMERATION_BUDGET elements.
    """
    if len({(c.q, c.d) for c in chars}) > 1:
        raise ValueError("a block takes characters of one field and one degree")
    if not chars:
        return np.zeros((0, 0), dtype=np.int64)
    q, d, g = chars[0].q, chars[0].d, chars[0].g
    if q**g > ENUMERATION_BUDGET:
        raise ResourceLimitError(
            f"point counting over F_{q}^{g} exceeds the budget of "
            f"{ENUMERATION_BUDGET} field elements",
            degree=g,
        )
    coeffs = np.array([c.D.coeffs for c in chars], dtype=np.int32)
    s = np.zeros((len(chars), g), dtype=np.int64)
    step = max(1, _WORK // len(chars))
    for k in range(1, g + 1):
        exp, log = extension_field(q, k)
        top = len(exp) - 1  # the index of 0 in exp
        size = q**k
        for lo in range(0, size, step):
            x = np.arange(lo, min(lo + step, size), dtype=np.int32)
            lx = log[x]
            y = np.broadcast_to(x, (len(chars), len(x)))  # D is monic: 1*x
            for i in range(d - 1, -1, -1):
                low = y % q
                y = y - low + (low + coeffs[:, i : i + 1]) % q
                if i:
                    y = exp[np.minimum(log[y] + lx, top)]
            # chi_k(y) = (-1)^(log y) on y != 0, and log 0 = top is even
            odd = np.count_nonzero(log[y] & 1, axis=1)
            zero = np.count_nonzero(y == 0, axis=1)
            s[:, k - 1] += len(x) - 2 * odd - zero
    return s
