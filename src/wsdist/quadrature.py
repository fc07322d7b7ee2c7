"""Numerical integration engines.

Four devices cover everything the closed forms and their oracles need:

* adaptive finite-interval quadrature with a nested Gauss-Legendre
  error estimate (`integrate_finite`),
* tanh-sinh (double exponential) quadrature for panels with integrable
  endpoint singularities (`tanh_sinh`),
* a panel-plus-acceleration scheme for semi-infinite oscillatory
  integrands with exponential damping (`integrate_semiinfinite_damped`:
  15-point Gauss panels, each checked against the interpolatory rule on
  13 of its own nodes, and Wynn's epsilon table extended once per block
  of panels from its carried last antidiagonal),
* symmetric-subtraction Cauchy principal values (`integrate_pv`),

plus Richardson extrapolation of epsilon-indexed sequences to 0.

Every engine takes the integrand as a plain callable and the interval,
pole or damping as arguments; none reads attributes off the integrand.
Integrands take a numpy array of abscissae and return an array of
values of the same shape; the row-batched engines call them as
f(x, rows), one row of x per integral.  Error estimates are absolute.
"""

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    InsufficientDataError,
    NonConvergenceError,
    PoleOnBoundaryError,
)

_MAX_PANELS = 4096
_TANH_SINH_LEVELS = 12  # step halvings after the unit step
_MAX_OSC_PANELS = 4000


@dataclass(frozen=True)
class QuadratureResult:
    """Scalar value and error_estimate from `integrate_finite` and
    `integrate_pv`; per-row arrays from the row-batched `tanh_sinh` and
    `integrate_semiinfinite_damped`, whose evaluations and converged
    cover all rows."""

    value: complex
    error_estimate: float
    evaluations: int
    converged: bool


@dataclass(frozen=True)
class EpsSchedule:
    """At least 3 finite, strictly decreasing damping parameters, at
    least halving each step (Richardson extrapolation needs 3)."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ValueError("empty epsilon schedule")
        if not all(0.0 < v < math.inf for v in vals):  # NaN fails too
            raise ValueError("epsilon values must be positive and finite")
        for prev, cur in zip(vals, vals[1:]):
            if cur > 0.5 * prev:
                raise ValueError(
                    "epsilon schedule must decrease by at least a factor 2"
                )
        if len(vals) < 3:
            # checked before any pairing is spent: richardson needs 3
            raise InsufficientDataError(
                f"epsilon schedule needs at least 3 values, got {len(vals)}"
            )


DEFAULT_EPS_SCHEDULE = EpsSchedule((0.2, 0.1, 0.05, 0.025))


@lru_cache(maxsize=16)
def gauss_legendre(n):
    """Cached Gauss-Legendre nodes and weights on [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights


@lru_cache(maxsize=1)
def _g15_comparator():
    """Weights, on the 15 Gauss-Legendre nodes, of the interpolatory
    rule on 13 of them: the symmetric pair at indices 1 and 13 gets
    weight 0.  The rule's nodes are symmetric, so it integrates degree
    13 exactly, as the 7-point Gauss rule does, and it costs no
    evaluation beyond the 15-point rule's."""
    nodes, _ = gauss_legendre(15)
    keep = np.delete(np.arange(15), [1, 13])
    moments = np.zeros(13)
    moments[0] = 2.0  # int_{-1}^{1} P_n = 2 for n = 0, else 0
    vander = np.polynomial.legendre.legvander(nodes[keep], 12)
    weights = np.zeros(15)
    weights[keep] = np.linalg.solve(vander.T, moments)
    return weights


def _gauss_panel(f, a, b, nodes, weights):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = f(mid + half * nodes)
    return half * np.sum(weights * vals)


def integrate_finite(f, a, b, tol):
    """Adaptive quadrature of f on [a, b] to absolute tolerance tol.

    Globally adaptive: the panel with the worst nested-rule error
    estimate (its 15-point Gauss value against the sum of its two
    half-panel values) is bisected first, until the summed estimate
    drops below tol.  Worst-first refinement piles bisections up
    geometrically at integrable endpoint singularities, so those
    converge as well.  Budget exhaustion returns the best estimate
    with converged=False.
    """
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    nodes, weights = gauss_legendre(15)

    def single(pa, pb):
        return _gauss_panel(f, pa, pb, nodes, weights)

    whole = single(a, b)
    evaluations = 15
    span = b - a

    def make_item(pa, pb, coarse):
        nonlocal evaluations
        mid = 0.5 * (pa + pb)
        left = single(pa, mid)
        right = single(mid, pb)
        evaluations += 30
        return (-abs(coarse - (left + right)), pa, pb, left, right)

    heap = [make_item(a, b, whole)]
    err_in_heap = -heap[0][0]
    frozen_value = 0.0 + 0.0j  # panels at minimum width, error frozen
    frozen_err = 0.0
    n_panels = 1
    # second clause: once width-frozen error dominates, further panel
    # splitting cannot reach tol; stop early instead of burning budget
    while (
        heap
        and n_panels < _MAX_PANELS
        and err_in_heap + frozen_err > tol
        and err_in_heap > 0.25 * frozen_err
    ):
        neg_err, pa, pb, pl, pr = heapq.heappop(heap)
        err_in_heap += neg_err
        if (pb - pa) <= 1e-14 * span + 1e-300:
            frozen_value += pl + pr
            frozen_err += -neg_err
            continue
        mid = 0.5 * (pa + pb)
        item_l = make_item(pa, mid, pl)
        item_r = make_item(mid, pb, pr)
        heapq.heappush(heap, item_l)
        heapq.heappush(heap, item_r)
        err_in_heap += -item_l[0] - item_r[0]
        n_panels += 1
    total = frozen_value + sum(it[3] + it[4] for it in heap)
    err_total = frozen_err + sum(-it[0] for it in heap)
    return QuadratureResult(
        complex(total), err_total, evaluations, err_total <= tol * 1.01 + 1e-300
    )


def tanh_sinh(f, a, b, tol):
    """Double-exponential quadrature on (a[r], b[r]) for every row r of
    the 1-D arrays a and b at once.

    Node offsets from the endpoints are formed in exp space, so nodes
    approach an end at 0 without cancellation.  At any other end an
    offset below half an ulp of the end rounds onto it, and f is called
    at the end itself: f must be finite at every row end other than 0.
    f(x, rows) gets a (len(rows), n) array of abscissae for the rows
    still refining.  Levels halve the step; a row leaves at the first
    level that agrees with its previous one to tol, so it has converged
    exactly when its error estimate is within tol.
    """
    if np.ndim(a) != 1 or np.shape(a) != np.shape(b) or not np.all(a < b):
        raise ValueError("need 1-D arrays a, b of row ends with a < b")
    width = b - a
    t_max = 4.0
    evaluations = 0

    def level_sum(ts, rows):
        nonlocal evaluations
        u = 0.5 * math.pi * np.sinh(ts)
        e2u = np.exp(-2.0 * u)
        wr = width[rows, None]
        delta = wr * e2u / (1.0 + e2u)  # distance to nearest endpoint
        sech2 = 4.0 * e2u / (1.0 + e2u) ** 2
        w = 0.5 * wr * 0.5 * math.pi * np.cosh(ts) * sech2
        lo = f(a[rows, None] + delta, rows)
        hi = f(b[rows, None] - delta, rows)
        evaluations += 2 * delta.size
        return np.sum(w * (lo + hi), axis=1)

    h = 1.0
    ts = np.arange(1, int(t_max / h) + 1) * h
    live = np.arange(len(a))
    center_weight = 0.5 * width * 0.5 * math.pi
    mid_val = f((0.5 * (a + b))[:, None], live)[:, 0]
    evaluations += len(a)
    total = center_weight * mid_val + level_sum(ts, live)
    prev = h * total
    result = prev.copy()
    err = np.abs(prev)
    converged = np.zeros(len(a), dtype=bool)
    for level in range(1, _TANH_SINH_LEVELS + 1):
        h *= 0.5
        ts = np.arange(1, int(t_max / h) + 1, 2) * h  # odd multiples only
        total[live] += level_sum(ts, live)
        res = h * total[live]
        err[live] = np.abs(res - prev[live])
        result[live] = res
        prev[live] = res
        converged[live] = err[live] <= tol
        live = live[~converged[live]]
        if not live.size:
            break
    return QuadratureResult(result, err, evaluations, bool(np.all(converged)))


def _wynn_extend(diag, last_tiny, panels, n):
    """Extend each row's Wynn epsilon table by nb new partial sums.

    diag (15, rows) is the table's last antidiagonal e_0 .. e_14 at the
    partial sum S_n: e_k = eps_k^(n-k), e_0 = S_n, nan where the table
    has no entry yet.  last_tiny (14, rows) holds, per column c, the
    index of the last partial sum whose arrival made a difference in
    column c smaller than 1e-300 (-1 if none).  panels (rows, nb) are
    the next nb panel values.  Only the nb new antidiagonals are formed,
    column by column, each entry from the rhombus rule

        eps_{k+1}^(i) = eps_{k-1}^(i+1) + 1 / (eps_k^(i+1) - eps_k^(i)),

    and an entry depends only on S_i .. S_{i+k+1}, never on which sums
    are kept.  For every new partial sum S_m the table is read as the
    table on the window of the last min(m + 1, 16) sums: a column
    counts as broken when it meets a difference below 1e-300 inside the
    window; the estimate is the last entry of the highest even column
    formed in the window, at most the first broken one, and the change
    from the previous even column is the acceleration error estimate, 0
    in a row with a broken column (its later columns hold inf/nan and
    are not read).

    Returns the new diag and last_tiny, and (rows, nb) arrays of the
    estimate and change at S_{n+1} .. S_{n+nb}.
    """
    rows, nb = panels.shape
    table = np.empty((15, rows, nb + 1), dtype=complex)
    table[:, :, 0] = diag
    table[0] = np.add.accumulate(np.column_stack((diag[0], panels)), axis=1)
    tiny = np.empty((14, rows, nb + 1), dtype=int)
    tiny[:, :, 0] = last_tiny
    sums = np.arange(n + 1, n + nb + 1)  # index of each new partial sum
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(14):
            diff = table[k, :, 1:] - table[k, :, :-1]
            tiny[k, :, 1:] = np.where(np.abs(diff) < 1e-300, sums, -1)
            inv = 1.0 / diff
            table[k + 1, :, 1:] = inv if k == 0 else table[k - 1, :, :-1] + inv
        np.maximum.accumulate(tiny, axis=2, out=tiny)
        width = np.minimum(sums + 1, 16)
        cols = np.arange(14)[:, None]
        # at S_m, column c of the window holds the differences whose
        # last sum is m - width + c + 2 or later, and is checked only
        # when c <= width - 3
        broken = (tiny[:, :, 1:] >= (sums - width + 2 + cols)[:, None]) & (
            cols <= width - 3
        )[:, None]
        any_broken = broken.any(axis=0)
        top = np.where(any_broken, broken.argmax(axis=0), width - 2)
        top -= top % 2
        new = table[:, :, 1:]
        est = np.take_along_axis(new, top[None], axis=0)[0]
        below = np.take_along_axis(new, np.maximum(top - 2, 0)[None], axis=0)[0]
        below = np.where(top >= 2, below, table[0, :, :-1])
        change = np.where(any_broken, 0.0, np.abs(est - below))
    return table[:, :, -1].copy(), tiny[:, :, -1].copy(), est, change


def integrate_semiinfinite_damped(f, damping, zero_spacing, tol):
    """Integrate f over [0, inf) for oscillatory f with e^{-damping*k} decay.

    The half-line is cut into panels of width zero_spacing (half an
    oscillation for the intended Bessel-product kernels), each panel is
    integrated by the 15-point Gauss rule, and the sequence of partial
    sums is accelerated by Wynn's epsilon algorithm, which both speeds
    up convergence and supplies the truncation error estimate.  Each
    row carries its table's last antidiagonal, and a block of panels
    forms only the block's new antidiagonals (`_wynn_extend`); the
    estimate at every panel is that of the table on the last 16 partial
    sums.  A panel's error estimate compares its Gauss value with the
    degree-13 interpolatory rule on 13 of the same 15 nodes, so a panel
    costs 15 evaluations; only error_estimate reads it, never the stop
    test.
    The first panel uses tanh-sinh since the integrand may have an
    integrable singularity at 0.

    Each entry of the 1-D array zero_spacing is one integral, a row; all
    share damping and tol.  f(k, rows) gets a (len(rows), n) array of
    abscissae for the rows still running, rows their indices into
    zero_spacing, and a row leaves the batch when it stops; no row gets
    an abscissa past its cap of panels, which it ends unconverged.

    Raises NonConvergenceError when the panel magnitudes of a row fail
    to decay (wrong damping / spacing hints).
    """
    spacing = np.asarray(zero_spacing, dtype=float)
    if damping <= 0.0 or tol <= 0.0 or spacing.ndim != 1 or not np.all(spacing > 0.0):
        raise ValueError("damping, zero_spacing (1-D) and tol must be positive")
    n_rows = len(spacing)
    k_max = max(50.0, 40.0 / damping)
    n_panels = np.minimum(np.ceil(k_max / spacing), _MAX_OSC_PANELS).astype(int)

    n15, w15 = gauss_legendre(15)
    w13 = _g15_comparator()
    first = tanh_sinh(f, np.zeros(n_rows), spacing, tol * 1e-2)
    evaluations = first.evaluations

    value = np.empty(n_rows, dtype=complex)
    error = np.empty(n_rows)
    converged = np.zeros(n_rows, dtype=bool)
    # state of the running rows; `rows` maps them to their input index
    rows = np.arange(n_rows)
    panel_err = first.error_estimate.copy()
    # the epsilon table's last antidiagonal, and per column the last sum
    # at which it met a tiny difference (see _wynn_extend)
    diag = np.full((15, n_rows), complex(np.nan, np.nan))
    diag[0] = first.value
    last_tiny = np.full((14, n_rows), -1)
    mags = np.abs(first.value)[:, None]  # the last 4 panel magnitudes
    head = np.zeros(n_rows)  # largest magnitude of panels 1-4
    best = first.value.copy()
    best_change = np.abs(first.value)
    stable = np.zeros(n_rows, dtype=int)
    block = 8  # panels per integrand call; specfun batches amortize

    def finish(sel, err, ok):
        value[rows[sel]] = best[sel]
        error[rows[sel]] = err[sel]
        converged[rows[sel]] = ok

    j = 1
    while rows.size:
        # a row out of panels ends unconverged, with its last estimate
        spent = n_panels[rows] <= j
        finish(spent, best_change + panel_err + mags[:, -1], False)
        running = ~spent
        if running.all():  # else the spent rows leave before the next block
            # blocks keep to a grid of `block` panels from panel 1 and end
            # early at the smallest panel cap, so no row is evaluated past
            # its own
            off = (j - 1) % block
            nb = min(block - off, int(n_panels[rows].min()) - j)
            half = 0.5 * spacing[rows, None]
            mids = (np.arange(j, j + nb) + 0.5) * spacing[rows, None]
            xs = (mids[:, :, None] + half[:, :, None] * n15).reshape(rows.size, -1)
            vals = f(xs, rows).reshape(rows.size, nb, 15)
            evaluations += xs.size
            if nb < block:
                # matmul rounds a panel by its place among `block` panels:
                # a short block takes its places on the grid, as in a lone
                # row's call, so a row's panels keep their bits however
                # the blocks of its batch fall
                vals = np.pad(vals, ((0, 0), (off, block - off - nb), (0, 0)))
            v15 = half * (vals @ w15)[:, off:off + nb]
            v13 = half * (vals @ w13)[:, off:off + nb]
            diag, last_tiny, ests, changes = _wynn_extend(diag, last_tiny, v15, j - 1)
            for i in range(nb):
                jj = j + i
                panel_err = panel_err + np.abs(v15[:, i] - v13[:, i]) * 0.1
                mags = np.column_stack((mags[:, -3:], np.abs(v15[:, i])))
                if jj == 4:
                    head = mags.max(axis=1)
                if jj >= 6:
                    est, change = ests[:, i], changes[:, i]
                    scale = np.maximum(np.abs(est), 1e-300)
                    steady = (np.abs(est - best) <= 0.5 * tol * scale) & (
                        change <= tol * scale
                    )
                    stable = np.where(steady, stable + 1, 0)
                    best, best_change = est, change
                    done = (
                        running
                        & (stable >= 2)
                        & (mags[:, -1] <= math.sqrt(tol) * scale)
                    )
                    finish(done, best_change + panel_err + mags[:, -1] * tol, True)
                    running &= ~done
                if jj >= 12 and jj % 12 == 0:
                    tail = mags.max(axis=1)
                    if np.any(running & (tail > 4.0 * head + 1e-300) & (tail > 1e-12)):
                        raise NonConvergenceError(
                            "panel magnitudes are growing; check damping/zero_spacing"
                        )
                if not running.any():
                    break
            j += nb
        rows = rows[running]
        panel_err, mags, head = panel_err[running], mags[running], head[running]
        diag, last_tiny = diag[:, running], last_tiny[:, running]
        best, best_change, stable = best[running], best_change[running], stable[running]

    return QuadratureResult(value, error, evaluations, bool(np.all(converged)))


def pole_guard(pole):
    """Closest a pole may lie to an interval end for a principal value."""
    return 1e-10 * max(1.0, abs(pole))


def integrate_pv(f, a, b, pole, tol):
    """Cauchy principal value of f over [a, b].

    f has (at most) a simple pole at `pole`.  On the symmetric window
    [pole-h, pole+h] the odd part of the singularity cancels exactly:

        Pv int = int_0^h (phi(pole+t) - phi(pole-t))/t dt,
        phi(s) = f(s) * (s - pole),

    and the remainder is pole-free ordinary quadrature.
    """
    guard = pole_guard(pole)
    if abs(pole - a) < guard or abs(pole - b) < guard:
        raise PoleOnBoundaryError(
            f"pole {pole} coincides with an endpoint of [{a}, {b}]"
        )
    if not a < pole < b:
        return integrate_finite(f, a, b, tol)

    h = min(pole - a, b - pole, 0.5)

    def sym(t):
        # below ~1e-13 the offset underflows against the pole; the
        # quotient tends smoothly to 2 phi'(pole), so clamping is exact
        # to rounding
        t = np.maximum(np.asarray(t, dtype=float), 1e-13 * max(1.0, abs(pole)))
        up = pole + t
        dn = pole - t
        return (f(up) * (up - pole) - f(dn) * (dn - pole)) / t

    parts = [integrate_finite(sym, 0.0, h, 0.5 * tol)]
    if a < pole - h:
        parts.append(integrate_finite(f, a, pole - h, 0.25 * tol))
    if pole + h < b:
        parts.append(integrate_finite(f, pole + h, b, 0.25 * tol))
    value = sum(p.value for p in parts)
    err = sum(p.error_estimate for p in parts)
    evals = sum(p.evaluations for p in parts)
    return QuadratureResult(complex(value), err, evals, all(p.converged for p in parts))


def richardson(seq):
    """Polynomial extrapolation of (eps, value) pairs to eps = 0.

    Returns (limit, error_estimate); the estimate is the magnitude of
    the last Neville correction.
    """
    pairs = [(float(e), complex(v)) for e, v in seq]
    if len(pairs) < 3:
        raise InsufficientDataError("need at least 3 (eps, value) pairs")
    eps = [p[0] for p in pairs]
    if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
        raise ValueError("eps values must be strictly decreasing")
    n = len(pairs)
    tab = [p[1] for p in pairs]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            tab[i] = tab[i] + (tab[i] - tab[i - 1]) * eps[i] / (eps[i - j] - eps[i])
    err = abs(tab[-1] - tab[-2])
    return tab[-1], err
