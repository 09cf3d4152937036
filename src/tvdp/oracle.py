"""Water-filling oracle for linear maximization over total-variation balls.

Conventions used across the package:

* Total variation is the *unhalved* l1 distance, ``tv(p, q) = sum |p - q|``,
  so a radius lives in ``[0, 2]`` and radius 2 is the whole simplex.
* Distributions and payoff ("level") vectors are plain float64 numpy arrays;
  :func:`as_distribution` validates and normalizes the former.
* The oracle always returns the exact constrained maximum (mass shifted onto
  the argmax level set is clamped by what the other sets can give up). The
  unclamped closed form ``<levels, mu> + (radius/2) * oscillation`` is exposed
  separately via :func:`unclamped_value` for comparison; it overshoots
  whenever a clamp binds.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

# the tie tolerance, relative, of the one tie rule (see _sorted_groups) and
# of the solvers' action rule; a constant, which no entry takes
DEFAULT_TIE_TOL = 1e-9

# a real number is any numbers.Real but a bool; int and float come first
# because a bare numbers.Real check of a float is six times slower (0.6 us
# on CPython 3.11), and every stage backup checks its radius
_REAL = (int, float, numbers.Real)

# entries (rows times row length) from which one vectorized pass over all the
# rows of a call beats the per-row loop; below it numpy's per-call cost
# dominates (measured crossover)
BATCH_MIN_ENTRIES = 64

__all__ = [
    "DEFAULT_TIE_TOL",
    "SupportPartition",
    "WaterfillResult",
    "as_distribution",
    "oscillation",
    "partition_levels",
    "tv_distance",
    "unclamped_value",
    "waterfill_maximize",
]


def as_distribution(vec, sum_tol=1e-12, entry_tol=1e-12):
    """Validate an array-like as a probability vector and normalize it.

    Entries may undershoot 0 or overshoot 1 by ``entry_tol`` and the total
    may drift from 1 by ``sum_tol``; anything worse raises ``ValueError``.
    The returned vector is clipped to ``[0, 1]`` and renormalized, so its
    invariants hold to machine precision. Strings, bools and objects raise
    ``ValueError`` rather than convert.
    """
    p = _as_reals(vec, "distribution")
    if p.ndim != 1 or p.size == 0:
        raise ValueError("distribution must be a non-empty 1-D vector")
    if not np.all(np.isfinite(p)):
        raise ValueError("distribution has non-finite entries")
    if p.min() < -entry_tol or p.max() > 1.0 + entry_tol:
        raise ValueError(f"distribution entries outside [0, 1]: {p}")
    total = p.sum()
    if abs(total - 1.0) > sum_tol:
        raise ValueError(f"distribution sums to {total!r}, not 1")
    p = np.clip(p, 0.0, 1.0)
    return p / p.sum()


def tv_distance(p, q):
    """Unhalved total-variation distance ``sum |p - q|`` between two vectors."""
    a, b = _as_reals(p, "p"), _as_reals(q, "q")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.abs(a - b).sum())


def oscillation(levels):
    """Spread ``max(levels) - min(levels)`` of a payoff vector."""
    lv = _as_levels(levels)
    return float(lv.max() - lv.min())


@dataclass(frozen=True)
class SupportPartition:
    """Level sets of a payoff vector, grouped within a tie tolerance.

    ``sigma_max`` is the argmax set; ``sigma_levels`` holds the remaining
    sets ascending (``sigma_levels[0]`` is the argmin set). ``levels`` gives
    each ascending set's level (its smallest member, the grouping anchor)
    and ``level_max`` the top set's.
    """

    sigma_max: tuple
    sigma_levels: tuple
    levels: tuple
    level_max: float


@dataclass(frozen=True)
class WaterfillResult:
    """Outcome of one constrained maximization over a TV ball."""

    maximizer: np.ndarray
    value: float
    effective_radius: float
    r_max: float


def partition_levels(levels):
    """Group a payoff vector into ascending level sets.

    Two entries land in the same set when they differ from the set's anchor
    (its smallest member) by at most ``DEFAULT_TIE_TOL * max(1, |anchor|)``.

    Parameters
    ----------
    levels : array-like
        Finite payoff per outcome.

    Returns
    -------
    SupportPartition
    """
    lv = _as_levels(levels).tolist()
    order, starts = _sorted_groups(lv)
    groups = []
    for g, a in enumerate(starts):
        b = starts[g + 1] if g + 1 < len(starts) else len(lv)
        groups.append(tuple(sorted(order[a:b])))
    anchors = [lv[order[a]] for a in starts]
    return SupportPartition(
        sigma_max=groups[-1],
        sigma_levels=tuple(groups[:-1]),
        levels=tuple(anchors[:-1]),
        level_max=anchors[-1],
    )


def waterfill_maximize(mu, levels, radius):
    """Maximize ``<levels, nu>`` over the TV ball of ``radius`` around ``mu``.

    The maximizer lifts the argmax level set by half the effective radius
    ``min(radius, r_max)`` with ``r_max = 2 (1 - mu(argmax set))`` and drains
    the same mass from the cheapest sets upward, each set clamped at the mass
    it actually carries. Within a set, mass moves proportionally to ``mu``
    (uniformly onto a massless argmax set), so the result is a genuine
    distribution at TV distance exactly ``min(radius, r_max)`` from ``mu``.
    Level sets are grouped by the tie rule of :func:`partition_levels`. The
    result is exact for the levels with each set lowered to its anchor, so
    merged near-ties leave the value at most
    ``DEFAULT_TIE_TOL * max(1, max |levels|)`` below the ball maximum.

    Parameters
    ----------
    mu : array-like
        Nominal distribution (validated via :func:`as_distribution`).
    levels : array-like
        Finite payoff per outcome, same length as ``mu``.
    radius : float
        TV budget in ``[0, 2]``.

    Returns
    -------
    WaterfillResult
    """
    p, lv, r = _as_instance(mu, levels, radius)
    nu, value, eff, r_max = _waterfill(p, lv, r)
    return WaterfillResult(
        maximizer=nu, value=float(value), effective_radius=float(eff), r_max=float(r_max)
    )


def unclamped_value(mu, levels, radius):
    """Closed form ``<levels, mu> + (radius/2) * oscillation(levels)``.

    Upper bound on the ball maximum; exceeds it whenever the water-fill has
    to clamp (the argmin set cannot give up ``radius/2`` of mass, or the
    argmax set cannot absorb it).
    """
    p, lv, r = _as_instance(mu, levels, radius)
    return float(lv @ p) + 0.5 * r * float(lv.max() - lv.min())


def _is_real(x):
    """The package's one rule for a scalar number: a ``numbers.Real``, not a bool."""
    return isinstance(x, _REAL) and not isinstance(x, bool)


def _as_reals(values, what):
    """``values`` as float64; strings, bools and objects, which it would convert, raise."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "fiu":
        raise ValueError(f"{what} must hold real numbers, got dtype {arr.dtype}")
    return arr.astype(np.float64, copy=False)


def _as_levels(levels):
    lv = _as_reals(levels, "levels")
    if lv.ndim != 1 or lv.size == 0:
        raise ValueError("levels must be a non-empty 1-D vector")
    if not np.all(np.isfinite(lv)):
        raise ValueError("levels must be finite")
    return lv


def _as_instance(mu, levels, radius):
    """``mu``, ``levels`` and ``radius`` of one ball maximization, checked."""
    p, lv = as_distribution(mu), _as_levels(levels)
    if lv.shape != p.shape:
        raise ValueError(f"levels shape {lv.shape} does not match mu shape {p.shape}")
    return p, lv, _as_radius(radius)


def _as_radius(radius):
    r = float(radius) if _is_real(radius) else math.nan
    if not math.isfinite(r) or r < -1e-12 or r > 2.0 + 1e-12:
        raise ValueError(f"radius {radius!r} is not a real number in [0, 2]")
    return min(max(r, 0.0), 2.0)


def _sorted_groups(levels):
    """Stable ascending order of a ``levels`` list plus start offsets of its level sets.

    This is the package's one tie rule: an entry joins the current set when it
    exceeds the set's anchor (its smallest member) by at most
    ``DEFAULT_TIE_TOL * max(1, |anchor|)``.
    """
    tol = DEFAULT_TIE_TOL
    order = sorted(range(len(levels)), key=levels.__getitem__)
    starts = [0]
    anchor = levels[order[0]]
    for k in range(1, len(order)):
        lv = levels[order[k]]
        if lv - anchor > tol * max(1.0, abs(anchor)):
            starts.append(k)
            anchor = lv
    return order, starts


def _waterfill(mu, levels, radius):
    """Water-fill kernel behind :func:`waterfill_maximize` and every small backup.

    Takes a validated, normalized ``mu``, finite ``levels`` of the same
    length and a radius in ``[0, 2]``; the solvers call it directly to skip
    that validation per kernel row. The loops run on Python floats, which is
    the same IEEE arithmetic as on numpy scalars at a fraction of the cost per
    entry. Returns ``(nu, value, effective_radius, r_max)``.
    """
    mu = mu.tolist()
    levels = levels.tolist()
    n = len(mu)
    order, starts = _sorted_groups(levels)

    nu = list(mu)
    top = starts[-1]
    mass_top = 0.0
    for i in order[top:]:
        mass_top += mu[i]
    # one level set is a constant payoff: the ball cannot change the value
    r_max = 2.0 * (1.0 - mass_top) if top else 0.0
    if r_max < 0.0:
        r_max = 0.0
    alpha = radius if radius < r_max else r_max
    half = 0.5 * alpha

    if mass_top > 0.0:
        scale = half / mass_top
        for i in order[top:]:
            nu[i] = mu[i] + mu[i] * scale
    else:
        add = half / (n - top)
        for i in order[top:]:
            nu[i] = mu[i] + add

    budget = half
    for g in range(len(starts) - 1):
        if budget <= 0.0:
            break
        group = order[starts[g]:starts[g + 1]]
        mass = 0.0
        for i in group:
            mass += mu[i]
        take = budget if budget < mass else mass
        if take > 0.0:
            if take == mass:
                for i in group:
                    nu[i] = 0.0
            else:
                scale = take / mass
                for i in group:
                    nu[i] = mu[i] - mu[i] * scale
        budget -= take

    value = 0.0
    for i in range(n):
        value += levels[i] * nu[i]
    return np.array(nu), value, alpha, r_max


def _waterfill_rows(kernels, levels, radius):
    """:func:`_waterfill` for every row of a stacked ``(M, n)`` kernel matrix.

    The one entry that fills the rows of a backup. ``levels`` holds each row's
    payoff in the same shape (a broadcast view works). ``radius`` is one
    scalar for every row or an ``(M,)`` array with one value per row; row
    ``i`` gets the bits that a scalar call with ``radius[i]`` gives it. Below
    ``BATCH_MIN_ENTRIES`` entries (``M * n``) the rows go through
    :func:`_waterfill` one at a time, so the results are that kernel's bits.
    From there on one vectorized pass fills them all with that kernel's
    arithmetic in its order: the tie rule of :func:`_sorted_groups`, its
    level-set masses, its running budget and its value sum, so either path
    returns the same bits. Returns ``(nu, values)``.
    """
    m, n = kernels.shape
    if m * n < BATCH_MIN_ENTRIES:
        per_row = radius.tolist() if isinstance(radius, np.ndarray) else None
        nu = np.empty((m, n))
        values = np.empty(m)
        for i in range(m):
            r = radius if per_row is None else per_row[i]
            nu[i], values[i], _, _ = _waterfill(kernels[i], levels[i], r)
        return nu, values

    order = np.argsort(levels, axis=1, kind="stable")
    row_base = n * np.arange(m)[:, None]
    flat = order + row_base  # flat positions of each row's entries, ascending
    lv = np.take(levels, flat)
    mu = np.take(kernels, flat)

    # start[r, k]: sorted entry k opens a level set of row r. Where every gap
    # clears the tolerance each entry is its own set; rows with a near-tie
    # take the anchored pass, column by column
    tol = DEFAULT_TIE_TOL
    start = np.empty((m, n), dtype=bool)
    start[:, 0] = True
    start[:, 1:] = lv[:, 1:] - lv[:, :-1] > tol * np.maximum(1.0, np.abs(lv[:, :-1]))
    near = np.flatnonzero(~start.all(axis=1))
    if near.size:
        sub = lv[near]
        anchor = sub[:, 0]
        for k in range(1, n):
            col = sub[:, k]
            opens = col - anchor > tol * np.maximum(1.0, np.abs(anchor))
            start[near, k] = opens
            anchor = np.where(opens, col, anchor)

    gid = np.cumsum(start, axis=1) - 1
    top = gid[:, -1]
    gflat = gid + row_base
    # bincount adds in sorted order, as the per-row kernel does
    mass = np.bincount(gflat.ravel(), weights=mu.ravel(), minlength=m * n).reshape(m, n)
    mass_top = np.take(mass, top + row_base[:, 0])
    r_max = np.where(top > 0, np.maximum(2.0 * (1.0 - mass_top), 0.0), 0.0)
    half = 0.5 * np.where(radius < r_max, radius, r_max)

    # the kernel's running budget half - mass_0 - mass_1 - ..., one set at a
    # time down the transpose, so each step subtracts over all rows at once
    budget = np.subtract.accumulate(np.vstack((half, mass[:, :-1].T)), axis=0)
    take = np.minimum(np.maximum(budget.T, 0.0), mass)

    # an entry becomes mu + mu * its set's factor: -take / mass if drained (-1,
    # so 0, if whole), half / mass if the lifted top; 0.0 keeps mu, -0.0 too
    factor = np.divide(-take, mass, out=np.zeros((m, n)), where=take > 0.0)
    lifted = mass_top > 0.0
    factor.ravel()[top + row_base[:, 0]] = np.divide(half, mass_top, out=np.zeros(m), where=lifted)
    nu_s = mu + mu * np.take(factor, gflat)
    # a massless top set gets half spread evenly, as mu + half / its size
    bare = np.flatnonzero(~lifted)
    if bare.size:
        is_top = gid[bare] == top[bare, None]
        add = half[bare] / is_top.sum(axis=1)
        nu_s[bare] = np.where(is_top, mu[bare] + add[:, None], nu_s[bare])

    nu = np.empty((m, n))
    nu.ravel()[flat] = nu_s
    # the kernel's sum: from 0.0, levels[i] * nu[i] added in index order
    values = np.zeros(m)
    for col in (levels * nu).T:
        values += col
    return nu, values
