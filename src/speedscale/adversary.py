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

from .model import (INFINITE, CostModel, Instance, ModelError, PowerLaw,
                    _instance_from_checked, _is_int, _trace_from_checked, cost_table)
from .offline import _flow_pass
from .policies import _ID, _VALUE, PolicyView, _play_slot, _sorted_view, get_policy
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
        """The policy's view at slot 1: every job, ranked by value, equal values by id.

        The ranking is also the game's flow pass order, so the game sorts its
        jobs once. It is the order `offline._columns` gives the finalized
        game, where a job's position is its id: both put higher values first
        and equal values, 0.0 and -0.0 among them, in increasing id order.
        """
        # a reverse sort is stable, so equal values keep increasing ids; the
        # tuples are built from lists, as run_policy's comment explains
        values = self.values
        pairs = sorted(zip(range(len(values)), values), key=_VALUE, reverse=True)
        return _sorted_view(1, tuple(pairs), tuple([v for _, v in pairs]))


def _repeated_template(value: float, n: int, label: str) -> InstanceTemplate:
    """The template of n >= 1 jobs of one value: `InstanceTemplate`'s rule and
    message, checked on the one value, and no per-copy loop."""
    template = InstanceTemplate((value,), label)
    object.__setattr__(template, "values", (value,) * n)
    return template


def gen_alpha2_lb_instance(z: int) -> InstanceTemplate:
    """2z jobs, each of value 2z, arriving at slot 1 (the alpha=2 construction).

    A z too large to allocate is refused with a ModelError; CPython refuses
    such a tuple before touching memory.
    """
    if not (_is_int(z) and z >= 1):  # 3.0 and True are not coerced
        raise ModelError(f"z must be a positive integer, got {z}")
    try:
        return _repeated_template(float(2 * z), 2 * z, f"alpha2-lb:z={z}")
    except (MemoryError, OverflowError) as exc:
        raise ModelError(f"cannot allocate the alpha2-lb template of {2 * z} jobs: "
                         f"{str(exc) or 'out of memory'}") from None


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
    return _repeated_template(v, 4, f"sqrt2-lb:alpha={alpha:g}")


def _finalized_columns(template: InstanceTemplate, chosen_ids):
    """The finalized game as flow columns: ids 0..n-1, values, arrivals 1 and
    expiries, where the chosen jobs, ints in 0..n-1, never expire and every
    other job expires at slot 1."""
    n = len(template.values)
    expiries = [1] * n
    for i in chosen_ids:
        expiries[i] = INFINITE
    return range(n), template.values, [1] * n, expiries


def adversary_finalize(template: InstanceTemplate, slot1_choice) -> Instance:
    """Chosen jobs get an infinite deadline; every other job expires at slot 1.

    The choice comes from outside, so it is checked here: an id that is not
    one of the template's 0..n-1 is refused, and one equal to an id (1.0 or
    True for 1) marks that job.
    """
    chosen = set(slot1_choice)
    unknown = chosen.difference(range(len(template.values)))
    if unknown:
        raise ModelError(f"choice contains unknown job ids: {sorted(unknown)}")
    ids, values, arrivals, expiries = _finalized_columns(template, map(int, chosen))
    # InstanceTemplate checked the values; ids 0..n-1 at arrival 1 are in
    # (arrival, id) order, and a deadline of 1 or INFINITE is its own expiry
    return _instance_from_checked(zip(ids, arrivals, values, expiries, expiries), template.label)


def run_adversarial_game(policy, template: InstanceTemplate, cost: CostModel) -> RatioReport:
    """Play one adaptive round: observe the policy's slot-1 choice, fix deadlines,
    then score the finalized game offline vs online.

    The online run is that one slot, through the simulator's slot step:
    afterwards the chosen jobs are done and every other job has expired. The
    flow scores the finalized game's columns, which `adversary_finalize`'s
    instance also holds, so the profit has `offline_profit`'s bits, with no
    jobs built. Its pass order is the slot-1 view's ranking, whose first
    `count` ids are the choice: ids of the game's own view, so unchecked.
    """
    policy = get_policy(policy)
    table = cost_table(cost)
    view = template.slot1_view()
    decisions, ledgers = [], []
    count = _play_slot(policy, view, table, decisions, ledgers)
    order = [*map(_ID, view.candidates)]  # the flow's pass order: position is id here
    _, values, arrivals, expiries = _finalized_columns(template, order[:count])
    off_profit = _flow_pass(order, values, arrivals, expiries, table).profit()
    return build_report(template.label, off_profit, _trace_from_checked(decisions, ledgers))


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


def _last_rising(G: np.ndarray, z: np.ndarray) -> np.ndarray:
    """k0 of each row z: the last k in 1..z with k (k g(1) + g(z)) > (k+z)
    g(k), where branch k rises in x, or 0 where there is none. The test
    holds up to k0 and fails after (see `_row_peaks`), so this is a binary
    search over the integers, returned as floats."""
    import numpy as np

    zf, g1, gz = z.astype(float), G[1], G[z]
    lo, hi = np.zeros_like(zf), zf  # rising for k in 1..lo, not for k in hi+1..z
    while (lo < hi).any():
        mid = np.ceil(0.5 * (lo + hi))
        rising = mid * (mid * g1 + gz) > (mid + zf) * G[mid.astype(np.intp)]
        lo, hi = np.where(rising, mid, lo), np.where(rising, hi, mid - 1.0)
    return lo


def _inner_min_batch(G: np.ndarray, z: np.ndarray, x: np.ndarray,
                     k0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Min over integer k in 1..z of the ratio, for broadcast arrays z, x and
    k0, each z's `_last_rising`, with g read from the table G.

    With v = c_z + x, the ratio (A k + B) / (v k - g(k)) has A, B > 0 and a
    concave denominator, at least k x > 0 on 1..z as g(k) <= k c_z for k <=
    z, so it is unimodal on 1..z: it falls and then rises. A binary search that
    goes right wherever ratio(mid + 1) < ratio(mid), and left on a tie,
    therefore ends at the smallest integer minimiser. Each search starts
    from its row's bracket [k0, k0 + 1] clipped to 1..z, which holds every
    grid point's minimiser (13 alphas checked at z <= 1000). By unimodality,
    ratio(lo - 1) > ratio(lo) (or lo = 1) and ratio(hi + 1) >= ratio(hi) (or
    hi = z) pin the smallest minimiser inside the bracket, and the search's
    one step on it settles it; where either fails, the search starts from
    1..z. Points leave the search as soon as their range holds one integer.
    Only ratios are compared, never a stationary condition: a numerator that
    overflows reads inf, which is never less than a neighbour, and a nan
    fails the bracket's check, so the search needs no separate overflow
    path. A ratio is inf only where den > 0.0 fails, at any scale of g. z
    and k0 may come once per row (`z[:, None]`).
    """
    import numpy as np

    v = G[z] - G[z - 1] + x
    A, B = v - G[1], z * v - G[z]

    def ratio(k, A, B, v):
        kf = k.astype(float)
        den = v * kf - G[k]
        return np.where(den > 0.0, (A * kf + B) / den, np.inf)

    k0 = k0.astype(np.int64)
    hi = np.minimum(k0 + 1, z)
    lo = np.minimum(np.maximum(k0, 1), hi)
    below, above = np.maximum(lo - 1, 1), np.minimum(hi + 1, z)
    at_lo, at_hi = ratio(lo, A, B, v), ratio(hi, A, B, v)
    held = (((lo == 1) | (ratio(below, A, B, v) > at_lo))
            & ((hi == z) | (ratio(above, A, B, v) >= at_hi)))
    settled = np.where(at_hi < at_lo, hi, lo)  # the search's one step on [lo, hi]
    t_lo, t_hi = np.where(held, settled, 1).ravel(), np.where(held, settled, z).ravel()

    k = np.ones(v.size, dtype=np.int64)
    todo = np.arange(v.size)  # where each open point goes in k
    a, b, w = A.ravel(), B.ravel(), v.ravel()
    while todo.size:
        open_ = t_lo < t_hi
        if not open_.all():
            k[todo[~open_]] = t_lo[~open_]
            todo, t_lo, t_hi, a, b, w = (arr[open_] for arr in (todo, t_lo, t_hi, a, b, w))
        mid = (t_lo + t_hi) >> 1
        right = ratio(mid + 1, a, b, w) < ratio(mid, a, b, w)
        t_lo = np.where(right, mid + 1, t_lo)
        t_hi = np.where(right, t_hi, mid)
    k = k.reshape(v.shape)
    return ratio(k, A, B, v), k


def _crossings(G: np.ndarray, z: np.ndarray, j: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The x where branches j != k of row z meet: a 2 x n array, nan where they do not.

    With v = c_z + x, branch k is ((k+z)v - k g(1) - g(z)) / (kv - g(k)), so
    setting branches j and k equal gives a v**2 + b v + c = 0 with the
    coefficients below, solved in the cancellation-free form q / a and c / q.
    It is solved for w = v / 2**e, with 2**e the binade of g(z), so that b
    and c, of the size of g(z) and g(z)**2, do not overflow. Scaling by a
    power of two is exact, so wherever the unscaled form stays finite the
    roots are its roots, bit for bit.
    """
    import numpy as np

    zf, jf, kf = z.astype(float), j.astype(float), k.astype(float)
    gz, gj, gk = G[z], G[j], G[k]
    e = np.frexp(gz)[1]
    zs, js, ks = np.ldexp(gz, -e), np.ldexp(gj, -e), np.ldexp(gk, -e)
    a = zf * (kf - jf)
    b = (kf + zf) * js - (jf + zf) * ks + zs * (jf - kf)
    c = np.ldexp(jf * G[1] + gz, -e) * ks - np.ldexp(kf * G[1] + gz, -e) * js
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
        v = np.ldexp(np.stack([q / a, c / q]), e)
    return v - (gz - G[z - 1])


def _row_peaks(G: np.ndarray, z: np.ndarray, xcap: np.ndarray, k0: np.ndarray) -> np.ndarray:
    """The inner min at each row's peak over x in (0, xcap], for every row
    where that peak is a crossing of two branches in k.

    Branch k of row z is a Moebius function of v = c_z + x whose slope has
    the sign of k (k g(1) + g(z)) - (k+z) g(k) = k (g(z) - z r - k (r -
    g(1))), r = g(k) / k, whatever v is. By convexity and g(0) = 0, r rises
    in k, so the sign is + for k in 1..k0 and not after, with k0 < z: those
    branches rise in x and the others fall. Every branch keeps a positive
    denominator for x > 0, so the split holds along the row. The
    row's inner min is then min(rising, falling), which peaks where the two
    cross or at an end, and by unimodality in k the branches meeting there
    are k0 and k0 + 1, the bracket `_inner_min_batch` starts from. k0 is
    each row's `_last_rising`, the crossing is `_crossings`, and each root
    in (0, xcap] goes through `_inner_min_batch`, so every value returned
    is one the inner min takes.
    """
    import numpy as np

    has = k0 >= 1.0  # at z = 1 no branch rises
    j = k0[has].astype(np.intp)
    roots = _crossings(G, z[has], j, j + 1)
    at = (roots > 0.0) & (roots <= xcap[has])
    z, k0 = (np.broadcast_to(col[has], roots.shape)[at] for col in (z, k0))
    return _inner_min_batch(G, z, roots[at], k0)[0]


def _g_table(cost: CostModel, size: int) -> tuple[np.ndarray, str]:
    """g(0..size-1), the only g the curve reads, and the cost as its refusals
    name it. A power law's entries are `PowerLaw.g`'s own pow, float(k) **
    alpha, so the curve reads the g the simulator, the game and the flow read,
    whatever CPU numpy dispatches to. Where that pow overflows, `PowerLaw.g`
    raises; here the entry and every later one, as k**alpha rises in k, read
    inf, which the curve's finite check refuses."""
    import numpy as np

    if isinstance(cost, PowerLaw):
        if not cost.alpha >= 2.0:
            raise ModelError(f"lower-bound evaluation needs alpha >= 2, got {cost.alpha}")
        g, alpha = [], cost.alpha
        try:
            for k in map(float, range(size)):
                g.append(k ** alpha)
        except OverflowError:
            g += [math.inf] * (size - len(g))
        return np.array(g), f"alpha={cost.alpha:g}"
    return np.array([cost.g(k) for k in range(size)], dtype=float), type(cost).__name__


_CHUNK = 256  # z rows evaluated per numpy batch


def eval_lower_bound(cost: CostModel, z_max: int, x_grid: int) -> tuple[np.ndarray, float]:
    """Sweep the lower-bound construction family over z = 1..z_max for the
    convex cost g, read from one table of g(0..z_max+1).

    Row z's x runs over a uniform grid on (0, xcap], xcap = g(z+1) - 2g(z) +
    g(z-1), its right end included, and the inner minimum over the policy's
    count k is exact. The curve comes back as one structured array with
    columns z, x, k_star and value, one row per grid point in z-major order.
    The returned best is the larger of the grid's maximum and, in every
    row, the inner min where branches k0 and k0 + 1 cross (`_row_peaks`): a
    row peaks there or at an end of (0, xcap]. A row whose crossing lies at
    x <= 0 falls along all of (0, xcap]: its supremum, as x -> 0, is no
    maximum, and the grid's first point stands for it. On 34 alphas in
    [2, 178], z <= 200, no row's limit at x -> 0 came within 1e-5 of the
    best. Refused with a ModelError: a grid too large to allocate; a cost
    with some xcap <= 0; a curve with a non-finite x or value, which
    overflowed a float on the way, before any crossing is solved, naming
    its largest value with nan skipped; and a non-finite best.
    """
    import numpy as np

    for name, size in (("z_max", z_max), ("x_grid", x_grid)):
        if not _is_int(size):  # 10.0 and True are not coerced
            raise ModelError(f"{name} must be an integer, got {size!r}")
    if z_max < 1:
        raise ModelError(f"z_max must be >= 1, got {z_max}")
    if x_grid < 2:
        raise ModelError(f"x_grid must be >= 2, got {x_grid}")

    try:
        curve = np.empty(z_max * x_grid, dtype=[("z", np.int64), ("x", float),
                                                ("k_star", np.int64), ("value", float)])
    except (MemoryError, ValueError) as exc:  # numpy refuses these before touching memory
        raise ModelError(f"cannot allocate the lower-bound grid of {z_max} x {x_grid} "
                         f"points: {exc}") from None
    z = np.arange(1, z_max + 1, dtype=np.int64)
    frac = np.arange(1, x_grid + 1, dtype=float) / x_grid
    with np.errstate(all="ignore"):  # an overflow leaves a non-finite point or best, refused below
        G, name = _g_table(cost, z_max + 2)
        xcap = G[2:] - 2.0 * G[1:-1] + G[:-2]
        flat = np.flatnonzero(xcap <= 0.0)  # an overflowed nan or inf is not flat
        if flat.size:
            raise ModelError(f"the lower-bound curve needs g(z+1) - 2g(z) + g(z-1) > 0, "
                             f"got {float(xcap[flat[0]])!r} at z={flat[0] + 1}")
        k0 = _last_rising(G, z)  # each row settles on its own, whatever rows share the call
        for start in range(0, z_max, _CHUNK):
            zs = z[start:start + _CHUNK]
            x = xcap[start:start + _CHUNK, None] * frac[None, :]
            values, kstars = _inner_min_batch(G, zs[:, None], x, k0[start:start + _CHUNK, None])
            part = curve[start * x_grid:(start + len(zs)) * x_grid]
            part["z"], part["x"] = np.repeat(zs, x_grid), x.ravel()
            part["k_star"], part["value"] = kstars.ravel(), values.ravel()
        values = curve["value"]
        bad = np.count_nonzero(~(np.isfinite(curve["x"]) & np.isfinite(values)))
        best = float(np.fmax.reduce(values))  # nan skipped
        if not bad:
            best = max(best, float(_row_peaks(G, z, xcap, k0).max(initial=-math.inf)))
    if bad or not math.isfinite(best):
        raise ModelError(f"the lower-bound curve overflows a float at {name}: "
                         f"{bad} of {curve.size} grid points are not finite, best is {best}")
    return curve, best
