"""Pure-Python water-fill kernel.

Reference twin of the compiled ``tvdp._kernels`` module. Both implement the
same arithmetic in the same order, so their outputs agree bit for bit; this
module is what runs when the extension is unavailable. Its
:func:`sorted_groups` is also the package's one tie rule:
``tvdp.oracle.partition_levels`` groups levels with it.

The kernel solves

    max  <levels, nu>   over probability vectors nu
    s.t. sum |nu - mu|  <=  radius        (unhalved total variation)

by water-filling: lift the argmax level set of ``levels`` by half the
effective radius and drain the same mass from the cheapest level sets upward.
Mass moves proportionally to ``mu`` within a level set (uniformly onto the
argmax set if it carries no nominal mass).
"""

import numpy as np

BACKEND_NAME = "python"


def sorted_groups(levels, tie_tol):
    """Stable ascending order of ``levels`` plus start offsets of its level sets.

    An entry joins the current set when it exceeds the set's anchor (its
    smallest member) by at most ``tie_tol * max(1, |anchor|)``.
    """
    order = np.argsort(levels, kind="stable")
    starts = [0]
    anchor = levels[order[0]]
    for k in range(1, levels.shape[0]):
        lv = levels[order[k]]
        if lv - anchor > tie_tol * max(1.0, abs(anchor)):
            starts.append(k)
            anchor = lv
    return order, starts


def waterfill(mu, levels, radius, tie_tol):
    """Water-fill maximization over the TV ball of radius ``radius``.

    Parameters
    ----------
    mu : float64 ndarray
        Nominal probability vector. Assumed validated and normalized.
    levels : float64 ndarray
        Payoff per outcome, same length as ``mu``.
    radius : float
        TV budget in [0, 2].
    tie_tol : float
        Relative tolerance grouping nearly-equal levels into one set.

    Returns
    -------
    (nu, value, effective_radius, r_max)
        Maximizer, attained value ``<levels, nu>``, the radius actually
        used ``min(radius, r_max)``, and the saturation radius
        ``r_max = 2 (1 - mu(argmax set))``.
    """
    n = mu.shape[0]
    order, starts = sorted_groups(levels, tie_tol)

    nu = mu.copy()
    if len(starts) == 1:
        # constant payoff: the ball cannot change the value
        value = 0.0
        for i in range(n):
            value += levels[i] * nu[i]
        return nu, value, 0.0, 0.0

    top = starts[-1]
    mass_top = 0.0
    for k in range(top, n):
        mass_top += mu[order[k]]
    r_max = 2.0 * (1.0 - mass_top)
    if r_max < 0.0:
        r_max = 0.0
    alpha = radius if radius < r_max else r_max
    half = 0.5 * alpha

    if mass_top > 0.0:
        scale = half / mass_top
        for k in range(top, n):
            i = order[k]
            nu[i] = mu[i] + mu[i] * scale
    else:
        add = half / (n - top)
        for k in range(top, n):
            nu[order[k]] = mu[order[k]] + add

    budget = half
    for g in range(len(starts) - 1):
        if budget <= 0.0:
            break
        a = starts[g]
        b = starts[g + 1]
        mass = 0.0
        for k in range(a, b):
            mass += mu[order[k]]
        take = budget if budget < mass else mass
        if take > 0.0:
            if take == mass:
                for k in range(a, b):
                    nu[order[k]] = 0.0
            else:
                scale = take / mass
                for k in range(a, b):
                    i = order[k]
                    nu[i] = mu[i] - mu[i] * scale
        budget -= take

    value = 0.0
    for i in range(n):
        value += levels[i] * nu[i]
    return nu, value, alpha, r_max
