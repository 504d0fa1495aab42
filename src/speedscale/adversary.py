"""Adversarial lower-bound machinery: deadline templates, the adaptive game,
and the numeric evaluation of the general lower-bound expression.

The adversary publishes a batch of values at slot 1 with deadlines left open.
After watching what the online policy processes in slot 1 it fixes deadlines
in the worst way consistent with what the policy saw: the chosen jobs never
expire (their payoff was already banked at group cost), everything else
expires immediately. A clairvoyant scheduler instead processes the leftover
pool greedily at slot 1 and the chosen jobs one per later slot.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (INFINITE, CostModel, Instance, Job, ModelError, PowerLaw,
                    SlotDecision, Trace)
from .offline import offline_profit
from .policies import PolicyView, SlotLedger, checked_decision, get_policy
from .reports import RatioReport, build_report

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
        if not self.values:
            raise ModelError("template needs at least one job")
        if any(v < 0 for v in self.values):
            raise ModelError("template values must be non-negative")

    def slot1_view(self) -> PolicyView:
        ranked = sorted(enumerate(self.values), key=lambda t: (-t[1], t[0]))
        return PolicyView(1, tuple((jid, v) for jid, v in ranked))


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


def adversary_finalize(template: InstanceTemplate, slot1_choice) -> Instance:
    """Chosen jobs get an infinite deadline; every other job expires at slot 1."""
    chosen = set(slot1_choice)
    unknown = chosen.difference(range(len(template.values)))
    if unknown:
        raise ModelError(f"choice contains unknown job ids: {sorted(unknown)}")
    jobs = tuple(Job(id=jid, arrival=1, value=value, deadline=INFINITE if jid in chosen else 1)
                 for jid, value in enumerate(template.values))
    return Instance(jobs, label=template.label)


def run_adversarial_game(policy, template: InstanceTemplate, cost: CostModel) -> RatioReport:
    """Play one adaptive round: observe the policy's slot-1 choice, fix deadlines,
    then score the finalized instance offline vs online.

    The online run is that one slot: afterwards the chosen jobs are done and
    every other job has expired.
    """
    policy = get_policy(policy)
    view = template.slot1_view()
    decision = checked_decision(policy, view, cost)
    chosen = tuple(jid for jid, _ in view.candidates[: decision.count])
    instance = adversary_finalize(template, chosen)
    by_id = {j.id: j for j in instance.jobs}
    decisions = [SlotDecision.build(1, [by_id[jid] for jid in chosen], cost)] if chosen else []
    ledgers = [SlotLedger(1, decision.count, decision.breakdowns)] if decision.breakdowns else []
    off_profit = offline_profit(instance, cost)
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
    """The lower-bound ratio at one (z, x, k) point of the construction family."""
    cz = float(z) ** alpha - float(z - 1) ** alpha
    v = cz + x
    num = k * (v - 1.0) + (z * v - float(z) ** alpha)
    den = k * v - float(k) ** alpha
    return num / den


def _x_cap(alpha: float, z: np.ndarray) -> np.ndarray:
    zf = z.astype(float)
    return (zf + 1.0) ** alpha - 2.0 * zf ** alpha + (zf - 1.0) ** alpha


def _inner_min_batch(alpha: float, z: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Min over integer k in 1..z of the ratio, for broadcast arrays z and x.

    The ratio (A k + B) / (v k - k**alpha) with A, B > 0 is unimodal in k on
    the positive-denominator range, so the integer minimum sits at floor/ceil
    of the stationary point (or at the clamped ends), found by bisection on
    the increasing function A(alpha-1)k**alpha + alpha B k**(alpha-1) - B v.
    The bisection runs per element on the unsettled points alone. Only
    floor(k*) and ceil(k*) are read, so a point settles as soon as its
    bracket holds no integer: every later midpoint lies strictly between the
    same two integers, and so do the final k* of the full 80 steps and the
    midpoint of the bracket kept. A point whose k* lies within rounding of an
    integer instead settles at its float fixed point, where the midpoint
    equals the end it would replace and every later step repeats itself.
    Either way the candidates, and so the result, are those of the full 80
    steps, which remain only as a cap.
    """
    zf = z.astype(float)
    cz = zf ** alpha - (zf - 1.0) ** alpha
    v = cz + x
    A = v - 1.0
    B = zf * v - zf ** alpha
    kbar = v ** (1.0 / (alpha - 1.0))  # denominator positive iff k < kbar

    a_lead, b_lead, bv = (A * (alpha - 1.0)).ravel(), (alpha * B).ravel(), (B * v).ravel()
    t_lo, t_hi = np.full(v.size, 1e-9), kbar.ravel()  # brackets of the unsettled points
    todo = np.arange(v.size)  # where each unsettled point goes in lo and hi
    lo, hi = np.empty(v.size), np.empty(v.size)
    for _ in range(80):
        mid = 0.5 * (t_lo + t_hi)
        neg = a_lead * mid ** alpha + b_lead * mid ** (alpha - 1.0) - bv < 0.0
        fixed = mid == np.where(neg, t_lo, t_hi)
        t_lo = np.where(neg, mid, t_lo)
        t_hi = np.where(neg, t_hi, mid)
        settled = fixed | (np.ceil(t_lo) > t_hi)  # no integer in the bracket
        if settled.any():
            done = todo[settled]
            lo[done], hi[done] = t_lo[settled], t_hi[settled]
            keep = ~settled
            todo, t_lo, t_hi = todo[keep], t_lo[keep], t_hi[keep]
            a_lead, b_lead, bv = a_lead[keep], b_lead[keep], bv[keep]
            if not todo.size:
                break
    lo[todo], hi[todo] = t_lo, t_hi
    kstar = (0.5 * (lo + hi)).reshape(v.shape)

    kmax = np.minimum(zf, np.ceil(kbar) - 1.0)
    candidates = np.stack([
        np.clip(np.floor(kstar), 1.0, zf),
        np.clip(np.ceil(kstar), 1.0, zf),
        np.ones_like(zf),
        np.clip(kmax, 1.0, zf),
    ])
    num = A * candidates + B
    den = v * candidates - candidates ** alpha
    ratio = np.where(den > 1e-300, num / den, np.inf)
    pick = np.argmin(ratio, axis=0)
    best = np.take_along_axis(ratio, pick[None], axis=0)[0]
    best_k = np.take_along_axis(candidates, pick[None], axis=0)[0]
    return best, best_k.astype(np.int64)


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
_CURVE_DTYPE = np.dtype([("z", np.int64), ("x", float), ("k_star", np.int64), ("value", float)])


def eval_lower_bound(alpha: float, z_max: int, x_grid: int) -> tuple[np.ndarray, float]:
    """Sweep the lower-bound construction family over z = 1..z_max.

    For each z, x runs over a uniform grid on (0, xcap(z)] including the right
    endpoint, and the inner minimum over the policy's count k is exact. The
    curve comes back as one structured array with columns z, x, k_star and
    value, one row per grid point in z-major order. The returned best also
    refines the top `_REFINE_TOP` grid rows with `_refine_peak`, because the
    inner min peaks where two branches in k cross, which a grid point hits
    only by chance.
    """
    if not alpha >= 2.0:
        raise ModelError(f"lower-bound evaluation needs alpha >= 2, got {alpha}")
    if z_max < 1:
        raise ModelError(f"z_max must be >= 1, got {z_max}")
    if x_grid < 2:
        raise ModelError(f"x_grid must be >= 2, got {x_grid}")

    curve = np.empty(z_max * x_grid, dtype=_CURVE_DTYPE)
    best = -math.inf
    frac = np.arange(1, x_grid + 1, dtype=float) / x_grid
    row_best: list[tuple[float, int, float, float]] = []  # (value, z, x at argmax, xcap)

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
        best = max(best, float(values.max()))
        part = curve[(start - 1) * x_grid:(start - 1 + len(zs)) * x_grid]
        part["z"], part["x"] = zz.ravel(), x.ravel()
        part["k_star"], part["value"] = kstars.ravel(), values.ravel()

    h = 1.0 / x_grid
    _, z_top, x_at, xcap = np.array(sorted(row_best, reverse=True)[:_REFINE_TOP]).T
    lo = np.maximum(xcap * h * 1e-6, x_at - xcap * h)
    hi = np.minimum(xcap, x_at + xcap * h)
    return curve, max(best, _refine_peak(alpha, z_top.astype(np.int64), lo, hi))
