"""The zero finder as first written: the oracle for the block zero finder.

The library refines the sign-change brackets of a whole block of moduli
as lanes of one bisection+Newton search.  This module keeps the original
form: one modulus at a time, every bracket refined by its own scalar
loop.  The block finder must return the same angles and residuals, float
for float.
"""

import math

import numpy as np

from hyperell.errors import RootIsolationError
from hyperell.lfunc import ZeroAngles, _verify_reconstruction, unitarize


def refine_bracket(xi, lo, hi, flo, fhi):
    """Bisection to a tight bracket, then safeguarded Newton polish."""
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        fm = xi(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    t = 0.5 * (lo + hi)
    width = hi - lo
    for _ in range(40):
        df = xi.derivative_at(t)
        if df == 0.0:
            break
        step = xi(t) / df
        t2 = t - step
        if not (lo - width <= t2 <= hi + width):
            break
        t = t2
        if abs(step) < 1e-16:
            break
    return min(max(t, 0.0), 0.5)


def newton_on_derivative(xi, t0, lo, hi):
    """Locate a critical point of Xi near t0 (for tangency detection)."""
    t = t0
    for _ in range(60):
        d2 = xi.second_derivative_at(t)
        if d2 == 0.0:
            break
        step = xi.derivative_at(t) / d2
        t2 = t - step
        if not (lo <= t2 <= hi):
            break
        t = t2
        if abs(step) < 1e-16:
            break
    return t


def isolate_half(xi, g, points, scale):
    """Roots of Xi on [0, 1/2] as (theta, multiplicity), or None if short."""
    xs = np.linspace(0.0, 0.5, points + 1)
    vs = xi(xs)
    tiny = 1e-12 * scale
    spacing = 0.5 / points
    found = []
    blocked = np.zeros(len(xs), dtype=bool)

    small = np.abs(vs) <= tiny
    for i in np.flatnonzero(small):
        if blocked[i]:
            continue
        j = i
        while j + 1 < len(xs) and small[j + 1]:
            j += 1
        blocked[i : j + 2] = True
        if i == 0:
            found.append((0.0, 2))
        elif j == len(xs) - 1:
            found.append((0.5, 2))
        else:
            left = vs[i - 1] if i > 0 else 0.0
            right = vs[j + 1] if j + 1 < len(xs) else 0.0
            center = float(xs[(i + j) // 2])
            if left * right < 0:
                found.append((refine_bracket(xi, xs[i - 1], xs[j + 1], left, right), 1))
            else:
                found.append((center, 2))

    for i in range(len(xs) - 1):
        if blocked[i] or blocked[i + 1]:
            continue
        if vs[i] * vs[i + 1] < 0.0:
            found.append((refine_bracket(xi, xs[i], xs[i + 1], vs[i], vs[i + 1]), 1))

    def total(entries):
        return sum(m if t < 1e-15 or abs(t - 0.5) < 1e-15 else 2 * m for t, m in entries)

    if total(found) == 2 * g:
        return found
    if total(found) > 2 * g:
        return None

    tangency_cap = 8.0 * scale * (math.pi * max(g, 1) * spacing) ** 2
    absv = np.abs(vs)
    for i in range(1, len(xs) - 1):
        if blocked[i - 1 : i + 2].any():
            continue
        if absv[i] <= absv[i - 1] and absv[i] <= absv[i + 1] and absv[i] <= tangency_cap:
            if vs[i - 1] * vs[i + 1] <= 0.0:
                continue
            t = newton_on_derivative(xi, float(xs[i]), xs[i] - 2 * spacing, xs[i] + 2 * spacing)
            t = min(max(t, 0.0), 0.5)
            if abs(xi(t)) <= 1e-10 * scale:
                if all(abs(t - u) > spacing / 4 for u, _ in found):
                    found.append((t, 2))
    if total(found) == 2 * g:
        return found
    return None


def find_zero_angles(L, grid_factor=64):
    """All 2g zero angles of L with multiplicity, one modulus at a time."""
    if grid_factor < 16:
        raise ValueError(f"grid_factor must be >= 16, got {grid_factor}")
    g = L.g
    if g == 0:
        return ZeroAngles((), 0.0)
    xi = unitarize(L)
    scale = xi.scale
    gf = grid_factor
    while True:
        found = isolate_half(xi, g, gf * (2 * g + 2), scale)
        if found is not None:
            break
        if gf >= 1024:
            raise RootIsolationError(
                f"could not isolate {2*g} zero angles for D = {L.D} "
                f"(grid factor escalated to {gf})",
                intervals=[(0.0, 0.5)],
            )
        gf *= 2
    thetas = []
    for t, mult in sorted(found):
        if t < 1e-15:
            thetas.extend([0.0] * mult)
        elif abs(t - 0.5) < 1e-15:
            thetas.extend([0.5] * mult)
        else:
            thetas.extend([t] * mult)
            thetas.extend([1.0 - t] * mult)
    thetas.sort()
    residual = float(np.max(np.abs(xi(np.array(thetas))))) if thetas else 0.0
    zeros = ZeroAngles(tuple(thetas), residual)
    _verify_reconstruction(zeros, L)
    return zeros
