"""Adversarial lower-bound machinery: deadline templates, the adaptive game,
and the numeric evaluation of the general lower-bound expression.

The adversary publishes a batch of values at slot 1 with deadlines left open.
After watching what the online policy processes in slot 1 it fixes deadlines
in the worst way consistent with what the policy saw: the chosen jobs never
expire (their payoff was already banked at group cost), everything else
expires immediately. A clairvoyant scheduler instead processes the leftover
pool greedily at slot 1 and the chosen jobs one per later slot. The online
side is the simulator's slot step (``policies._play_slot``), played once.

The lower-bound numerics import numpy inside each routine, so the game and
the constructions run without loading it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .model import (INFINITE, CostModel, Instance, ModelError, PowerLaw, Trace,
                    _instance_from_checked, _is_int)
from .offline import _flow_pass
from .policies import PolicyView, _play_slot, get_policy
from .reports import RatioReport, build_report

if TYPE_CHECKING:
    import numpy as np

DELTA = (math.sqrt(5.0) - 1.0) / 2.0
PHI = 1.0 / DELTA
PHI_PLUS_1 = PHI + 1.0
SQRT2_PLUS_1 = math.sqrt(2.0) + 1.0


class ConstructionError(ModelError):
    """A lower-bound construction violated its own feasibility condition."""


@dataclass(frozen=True)
class InstanceTemplate:
    """A batch of slot-1 jobs whose deadlines the adversary will fix later."""

    values: tuple[float, ...]
    label: str = ""

    def __post_init__(self):
        # a tuple, so that changing the caller's list later cannot reach the
        # game's flow or adversary_finalize's jobs, which read them unchecked
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        if not values:
            raise ModelError("template needs at least one job")
        for v in values:  # Job's rule, checked before any policy sees the values
            if isinstance(v, bool) or not (0.0 <= v < INFINITE):
                raise ModelError(f"value must be non-negative and finite, got {v}")

    def slot1_view(self) -> PolicyView:
        # a reverse sort is stable, so equal values keep increasing ids
        values = self.values
        ranked = sorted(range(len(values)), key=values.__getitem__, reverse=True)
        return PolicyView(1, tuple([(jid, values[jid]) for jid in ranked]))


def gen_alpha2_lb_instance(z: int) -> InstanceTemplate:
    """2z jobs, each of value 2z, arriving at slot 1 (the alpha=2 construction)."""
    if z < 1:
        raise ModelError(f"z must be a positive integer, got {z}")
    return InstanceTemplate(values=(float(2 * z),) * (2 * z), label=f"alpha2-lb:z={z}")


def sqrt2_job_value(alpha: float) -> float:
    """Value (1 + 1/sqrt(2)) * (g(2) - sqrt(2) g(1)) used by the 4-job construction."""
    g = PowerLaw(alpha)
    return (1.0 + 1.0 / math.sqrt(2.0)) * (g.g(2) - math.sqrt(2.0) * g.g(1))


def gen_sqrt2_lb_instance(alpha: float) -> InstanceTemplate:
    """Four equal-value slot-1 jobs priced so any first-slot choice loses sqrt(2)+1.

    Requires alpha > 2; the value must stay below g(3) - g(2) so a third
    simultaneous job is never profitable.
    """
    if not alpha > 2.0:
        raise ModelError(f"the sqrt2 construction needs alpha > 2, got {alpha}")
    g = PowerLaw(alpha)
    v = sqrt2_job_value(alpha)
    if not v < g.g(3) - g.g(2):
        raise ConstructionError(
            f"value {v} does not stay below g(3)-g(2)={g.g(3) - g.g(2)} at alpha={alpha}")
    return InstanceTemplate(values=(v,) * 4, label=f"sqrt2-lb:alpha={alpha:g}")


def _finalized_columns(template: InstanceTemplate, slot1_choice):
    """The finalized game as flow columns: ids 0..n-1, values, arrivals 1 and
    expiries, where chosen jobs never expire and every other job expires at slot 1."""
    chosen, n = set(slot1_choice), len(template.values)
    unknown = chosen.difference(range(n))
    if unknown:
        raise ModelError(f"choice contains unknown job ids: {sorted(unknown)}")
    return range(n), template.values, [1] * n, [INFINITE if i in chosen else 1 for i in range(n)]


def adversary_finalize(template: InstanceTemplate, slot1_choice) -> Instance:
    """Chosen jobs get an infinite deadline; every other job expires at slot 1."""
    ids, values, arrivals, expiries = _finalized_columns(template, slot1_choice)
    # InstanceTemplate checked the values; ids 0..n-1 at arrival 1 are in
    # (arrival, id) order, and a deadline of 1 or INFINITE is its own expiry
    return _instance_from_checked(zip(ids, arrivals, values, expiries, expiries), template.label)


def run_adversarial_game(policy, template: InstanceTemplate, cost: CostModel) -> RatioReport:
    """Play one adaptive round: observe the policy's slot-1 choice, fix deadlines,
    then score the finalized game offline vs online.

    The online run is that one slot, through the simulator's slot step:
    afterwards the chosen jobs are done and every other job has expired. The
    flow scores the finalized game's columns, which `adversary_finalize`'s
    instance also holds, so the profit has `offline_profit`'s bits, with no jobs built.
    """
    policy = get_policy(policy)
    view = template.slot1_view()
    decisions, ledgers = [], []
    count = _play_slot(policy, view, cost, decisions, ledgers)
    columns = _finalized_columns(template, [jid for jid, _ in view.candidates[:count]])
    off_profit = _flow_pass(*columns, cost).profit()
    return build_report(template.label, off_profit, Trace(decisions, ledgers))


def alpha2_game_ratio(z: int, k: int) -> float:
    """Closed-form game ratio for the alpha=2 template when the policy picks k jobs."""
    if not 1 <= k <= z:
        raise ModelError(f"k must be in 1..z, got k={k}, z={z}")
    return (z * z + 2.0 * z * k - k) / (2.0 * z * k - k * k)


# ---------------------------------------------------------------------------
# Numeric evaluation of the general lower bound
# ---------------------------------------------------------------------------

def lower_bound_ratio(alpha: float, z: int, x: float, k: int) -> float:
    """The lower-bound ratio at one (z, x, k) point of the construction family.

    z and k must be integers with 1 <= k <= z. A zero denominator reads inf,
    as in the curve's inner minimum; a power that overflows a float raises
    ModelError.
    """
    if not (_is_int(z) and _is_int(k) and 1 <= k <= z):
        raise ModelError(f"k must be in 1..z, got k={k}, z={z}")
    try:
        z_pow, k_pow = float(z) ** alpha, float(k) ** alpha
        cz = z_pow - float(z - 1) ** alpha
    except OverflowError:
        raise ModelError(f"the lower-bound ratio overflows a float at alpha={alpha}, "
                         f"z={z}, k={k}") from None
    v = cz + x
    num = k * (v - 1.0) + (z * v - z_pow)
    den = k * v - k_pow
    return num / den if den else math.inf


def _x_cap(alpha: float, z: np.ndarray) -> np.ndarray:
    zf = z.astype(float)
    return (zf + 1.0) ** alpha - 2.0 * zf ** alpha + (zf - 1.0) ** alpha


def _inner_min_batch(alpha: float, z: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Min over integer k in 1..z of the ratio, for broadcast arrays z and x.

    The ratio (A k + B) / (v k - k**alpha) with A, B > 0 is unimodal in k on
    the positive-denominator range k < kbar, so on the integers 1..kmax,
    kmax = min(z, ceil(kbar) - 1), it falls and then rises. A binary search
    that goes right wherever ratio(mid + 1) < ratio(mid), and left on a tie,
    therefore ends at the smallest integer minimiser, after about log2(z)
    steps. Points leave the search as soon as their range holds one integer.
    Only ratios are compared, never a stationary condition: a numerator that
    overflows reads inf, which is never less than a neighbour, so the search
    stays on the finite side and needs no separate overflow path.
    """
    import numpy as np

    zf = z.astype(float)
    cz = zf ** alpha - (zf - 1.0) ** alpha
    v = cz + x
    A = v - 1.0
    B = zf * v - zf ** alpha
    kbar = v ** (1.0 / (alpha - 1.0))  # denominator positive iff k < kbar

    def ratio(k, A, B, v):
        den = v * k - k ** alpha
        return np.where(den > 1e-300, (A * k + B) / den, np.inf)

    k = np.ones(v.size)
    todo = np.arange(v.size)  # where each open point goes in k
    t_lo, t_hi = k.copy(), np.clip(np.minimum(zf, np.ceil(kbar) - 1.0), 1.0, zf).ravel()
    a, b, w = A.ravel(), B.ravel(), v.ravel()
    while todo.size:
        open_ = t_lo < t_hi
        if not open_.all():
            k[todo[~open_]] = t_lo[~open_]
            todo, t_lo, t_hi, a, b, w = (arr[open_] for arr in (todo, t_lo, t_hi, a, b, w))
        mid = np.floor(0.5 * (t_lo + t_hi))
        right = ratio(mid + 1.0, a, b, w) < ratio(mid, a, b, w)
        t_lo = np.where(right, mid + 1.0, t_lo)
        t_hi = np.where(right, t_hi, mid)
    k = k.reshape(v.shape)
    return ratio(k, A, B, v), k.astype(np.int64)


def golden_section_max(f, a: float, b: float, rtol: float) -> tuple[float, float, float]:
    """Golden-section search for the maximum of a unimodal f on [a, b].

    Stops once b - a <= rtol * max(1, |b|) or after 200 steps; returns the
    final bracket and max(f(c), f(d)) at its two interior points.
    """
    c = b - DELTA * (b - a)
    d = a + DELTA * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if b - a <= rtol * max(1.0, abs(b)):
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - DELTA * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + DELTA * (b - a)
            fd = f(d)
    return a, b, max(fc, fd)


def _crossings(alpha: float, z: np.ndarray, j: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The x where branches j != k of row z meet: a 2 x n array, nan where they do not.

    With v = c_z + x, branch k is ((k+z)v - k - z**alpha) / (kv - k**alpha), so
    setting branches j and k equal gives a v**2 + b v + c = 0 with the
    coefficients below, solved in the cancellation-free form q / a and c / q.
    """
    import numpy as np

    zf, jf, kf = z.astype(float), j.astype(float), k.astype(float)
    za, ja, ka = zf ** alpha, jf ** alpha, kf ** alpha
    a = zf * (kf - jf)
    b = (kf + zf) * ja - (jf + zf) * ka + za * (jf - kf)
    c = (jf + za) * ka - (kf + za) * ja
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
        v = np.stack([q / a, c / q])
    return v - (za - (zf - 1.0) ** alpha)


def _refine_peak(alpha: float, z: np.ndarray, x_lo: np.ndarray, x_hi: np.ndarray) -> float:
    """Maximum of the inner min over x in [x_lo, x_hi], taken over all rows z.

    For one row each branch k is a Moebius function of v = c_z + x whose
    derivative has the sign of k(k + z**alpha - (k+z) k**(alpha-1)), whatever v
    is. The inner min is thus a lower envelope of monotone branches, and its
    maximum over a bracket lies at an endpoint or where two branches cross.
    So each bracket is sampled at `_REFINE_SAMPLES` points in one batch, and
    wherever the active k changes between neighbouring samples the crossing
    of the two branches is solved and, when it lies between them, evaluated.

    The active k can jump past a third branch m between two samples; then m,
    not j or k, is the one active at the j-k crossing. Each such root
    therefore adds the crossings j-m and m-k on the same sub-interval to the
    next batch, until no new pair of branches appears. Every candidate goes
    through `_inner_min_batch`, so the result is a value the inner min takes:
    it can fall short of the peak but never overshoot it.
    """
    import numpy as np

    x = x_lo[:, None] + (x_hi - x_lo)[:, None] * np.linspace(0.0, 1.0, _REFINE_SAMPLES)
    values, ks = _inner_min_batch(alpha, np.broadcast_to(z[:, None], x.shape), x)
    best = float(values.max())
    row, col = np.nonzero(ks[:, 1:] != ks[:, :-1])
    pending = set(zip(z[row].tolist(), x[row, col].tolist(), x[row, col + 1].tolist(),
                      ks[row, col].tolist(), ks[row, col + 1].tolist()))  # (z, lo, hi, j, k)
    seen = set()
    while pending:
        seen |= pending
        pairs = sorted(pending)
        zs, lo, hi, j, k = (np.array(column) for column in zip(*pairs))
        roots = _crossings(alpha, zs, j, k)
        side, at = np.nonzero((roots >= lo) & (roots <= hi))
        if not at.size:
            break
        values, active = _inner_min_batch(alpha, zs[at], roots[side, at])
        best = max(best, float(values.max()))
        pending = set()
        for r, m in zip(at.tolist(), active.tolist()):
            z_r, lo_r, hi_r, j_r, k_r = pairs[r]
            pending |= {(z_r, lo_r, hi_r, j_r, m), (z_r, lo_r, hi_r, m, k_r)}
        pending = {pair for pair in pending if pair[3] != pair[4]} - seen
    return best


# Grid rows (best first) refined around their best grid point. Refining every
# row gave the same `best`, bit for bit, on 24 alphas in [2, 8] at z_max 200,
# x_grid 64, and took 1.4-1.7x as long, so only the top rows are refined. That
# is evidence, not proof: no bound yet shows an unrefined row cannot win.
_REFINE_TOP = 12
_REFINE_SAMPLES = 33  # points per refinement bracket, endpoints included
_CHUNK = 256  # z rows evaluated per numpy batch


def eval_lower_bound(alpha: float, z_max: int, x_grid: int) -> tuple[np.ndarray, float]:
    """Sweep the lower-bound construction family over z = 1..z_max.

    For each z, x runs over a uniform grid on (0, xcap(z)] including the right
    endpoint, and the inner minimum over the policy's count k is exact. The
    curve comes back as one structured array with columns z, x, k_star and
    value, one row per grid point in z-major order. The returned best also
    refines the top `_REFINE_TOP` grid rows with `_refine_peak`, because the
    inner min peaks where two branches in k cross, which a grid point hits
    only by chance. A curve with a non-finite x or value overflowed a float
    on the way and is refused with a ModelError before any refinement,
    naming its largest value with nan skipped; so is a non-finite best.
    """
    import numpy as np

    if not alpha >= 2.0:
        raise ModelError(f"lower-bound evaluation needs alpha >= 2, got {alpha}")
    if z_max < 1:
        raise ModelError(f"z_max must be >= 1, got {z_max}")
    if x_grid < 2:
        raise ModelError(f"x_grid must be >= 2, got {x_grid}")

    curve = np.empty(z_max * x_grid, dtype=[("z", np.int64), ("x", float),
                                            ("k_star", np.int64), ("value", float)])
    frac = np.arange(1, x_grid + 1, dtype=float) / x_grid
    row_best: list[tuple[float, int, float, float]] = []  # (value, z, x at argmax, xcap)

    with np.errstate(all="ignore"):  # an overflow leaves a non-finite point, refused below
        for start in range(1, z_max + 1, _CHUNK):
            zs = np.arange(start, min(start + _CHUNK, z_max + 1), dtype=np.int64)
            xcap = _x_cap(alpha, zs)
            x = xcap[:, None] * frac[None, :]
            zz = np.broadcast_to(zs[:, None], x.shape)
            values, kstars = _inner_min_batch(alpha, zz, x)
            arg = np.argmax(values, axis=1)
            rows = np.arange(len(zs))
            row_best.extend(zip(values[rows, arg].tolist(), zs.tolist(),
                                x[rows, arg].tolist(), xcap.tolist()))
            part = curve[(start - 1) * x_grid:(start - 1 + len(zs)) * x_grid]
            part["z"], part["x"] = zz.ravel(), x.ravel()
            part["k_star"], part["value"] = kstars.ravel(), values.ravel()

    values = curve["value"]
    bad = np.count_nonzero(~(np.isfinite(curve["x"]) & np.isfinite(values)))
    best = float(np.fmax.reduce(values))  # nan skipped
    if not bad:  # row_best holds no nan to sort, and every refined row is finite
        h = 1.0 / x_grid
        _, z_top, x_at, xcap = np.array(sorted(row_best, reverse=True)[:_REFINE_TOP]).T
        lo = np.maximum(xcap * h * 1e-6, x_at - xcap * h)
        hi = np.minimum(xcap, x_at + xcap * h)
        with np.errstate(all="ignore"):  # an overflow leaves a non-finite best, refused below
            best = max(best, _refine_peak(alpha, z_top.astype(np.int64), lo, hi))
    if bad or not math.isfinite(best):
        raise ModelError(f"the lower-bound curve overflows a float at alpha={alpha:g}: "
                         f"{bad} of {curve.size} grid points are not finite, best is {best}")
    return curve, best
