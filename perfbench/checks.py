"""Output checks made apart from the program.

Every check recomputes what the program reports from the benchmark's own
record of the inputs, with code of its own: the online schedule and each
local competitive ratio (LCR) from the paper's definition, the clairvoyant
optimum as a linear program solved by scipy's HiGHS, the adaptive game's
closed form, and the lower-bound ratio by a full scan over k. Nothing here
imports speedscale. Each check returns a list of error strings, empty when
the output is correct.
"""
from __future__ import annotations

import math

PHI_PLUS_1 = (1.0 + math.sqrt(5.0)) / 2.0 + 1.0
SQRT2_PLUS_1 = math.sqrt(2.0) + 1.0
REL = 1e-9


def close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def beta(alpha: float) -> float:
    """Root in (0, 1) of x**alpha + x**(alpha - 1) = 1, by bisection to machine precision."""
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if mid ** alpha + mid ** (alpha - 1.0) < 1.0:
            lo = mid
        else:
            hi = mid


def _g(k: int, alpha: float) -> float:
    return float(k) ** alpha


def lcr(values, i: int, alpha: float) -> float:
    """(top-i sum - i g(1) + best single-slot profit of the leftover) / (top-i sum - g(i))."""
    top = sum(values[:i])
    leftover_best, running = 0.0, 0.0
    for j, v in enumerate(values[i:], start=1):
        running += v
        leftover_best = max(leftover_best, running - _g(j, alpha))
    return (top - i * _g(1, alpha) + leftover_best) / (top - _g(i, alpha))


def _smallest_argmin(scores: dict[int, float]) -> int:
    low = min(scores.values())
    return min(i for i, s in scores.items() if s <= low + 1e-12 * abs(low))


def _profitable_count(values, alpha: float) -> int:
    m = 0
    for k, v in enumerate(values, start=1):
        if v - (_g(k, alpha) - _g(k - 1, alpha)) > 0.0:
            m = k
        else:
            break
    return m


# ---------------------------------------------------------------------------
# battery and bursty: competitive_report outputs
# ---------------------------------------------------------------------------

def check_ratio_report(rows, alpha: float, policy: str, report) -> list[str]:
    """Replay the policy's (slot, i_chosen) rows against views rebuilt from `rows`.

    `rows` holds (id, arrival, value, deadline) tuples, deadline math.inf for a
    job that never expires.
    """
    errors: list[str] = []
    ledger = list(report.per_slot_lcr)
    arrivals = sorted({a for _, a, _, _ in rows})
    done: set[int] = set()
    alg, chosen_lcrs, r = 0.0, [], 0
    slot = arrivals[0]
    b = beta(alpha)
    while True:
        live = sorted((j for j in rows if j[0] not in done and j[1] <= slot
                       and (j[3] == math.inf or slot <= j[1] + j[3] - 1)),
                      key=lambda j: (-j[2], j[1], j[0]))
        values = [j[2] for j in live]
        m = _profitable_count(values, alpha)
        row = ledger[r] if r < len(ledger) else None
        if m == 0:
            if row is not None and row.slot == slot:
                errors.append(f"slot {slot}: ledger row although no job is profitable")
                r += 1
            later = [a for a in arrivals if a > slot]
            if not later:
                break
            slot = later[0]
            continue
        if row is None or row.slot != slot:
            errors.append(f"slot {slot}: {m} profitable jobs but no ledger row")
            return errors
        i = row.i_chosen
        if not 1 <= i <= m:
            errors.append(f"slot {slot}: chose {i} outside 1..m={m}")
            return errors
        if policy == "min-lcr":
            scores = {k: lcr(values, k, alpha) for k in range(1, m + 1)}
            if i != _smallest_argmin(scores):
                errors.append(f"slot {slot}: min-lcr chose {i}, smallest argmin is "
                              f"{_smallest_argmin(scores)}")
        elif policy == "sim-lcr":
            lo, hi = max(1, math.floor(b * m)), min(m, math.ceil(b * m))
            scores = {k: lcr(values, k, alpha) for k in {lo, hi}}
            if i != _smallest_argmin(scores):
                errors.append(f"slot {slot}: sim-lcr chose {i}, expected one of {sorted(scores)} "
                              f"with the lower LCR")
            if (alpha == 2.0 or alpha >= 2.5) and scores.get(i, math.inf) > PHI_PLUS_1 + 1e-9:
                errors.append(f"slot {slot}: sim-lcr LCR {scores.get(i)} above phi+1")
        elif policy == "greedy":
            scores = {m: lcr(values, m, alpha)}
            if i != m:
                errors.append(f"slot {slot}: greedy chose {i}, m={m}")
            elif scores[m] > 3.0 + 1e-9:
                errors.append(f"slot {slot}: greedy LCR {scores[m]} above 3")
        else:
            raise ValueError(f"unknown policy {policy!r}")
        mine = scores[i] if i in scores else lcr(values, i, alpha)
        if not close(mine, row.lcr):
            errors.append(f"slot {slot}: reported LCR {row.lcr!r}, recomputed {mine!r}")
        chosen_lcrs.append(mine)
        done.update(j[0] for j in live[:i])
        alg += sum(values[:i]) - _g(i, alpha)
        r += 1
        slot += 1
    if r != len(ledger):
        errors.append(f"{len(ledger) - r} ledger rows past the end of the schedule")
    if not close(alg, report.alg_profit):
        errors.append(f"alg_profit {report.alg_profit!r}, recomputed {alg!r}")
    off = report.off_profit
    if off < alg - 1e-9:
        errors.append(f"off_profit {off!r} below the online profit {alg!r}")
    if chosen_lcrs and not close(max(chosen_lcrs), report.max_lcr):
        errors.append(f"max_lcr {report.max_lcr!r}, recomputed {max(chosen_lcrs)!r}")
    if alg > 1e-9:
        ratio = off / alg
        if not close(ratio, report.ratio):
            errors.append(f"ratio {report.ratio!r}, recomputed {ratio!r}")
        if ratio > max(chosen_lcrs) + 1e-9:
            errors.append(f"off/alg {ratio!r} above the ledger certificate {max(chosen_lcrs)!r}")
        if policy == "greedy" and ratio > 3.0 + 1e-9:
            errors.append(f"greedy off/alg {ratio!r} above 3")
    return errors


def lp_optimum(rows, alpha: float) -> float:
    """Clairvoyant optimum as the LP of the flow formulation, solved by HiGHS.

    Variables x[j, t] place job j in slot t of its window, cut to the first n
    slots (some optimal schedule uses only those: of any n slots at most n-1
    hold another job, and moving a job to an empty slot never costs more);
    y[t, k] buys the k-th unit of slot t at the marginal cost g(k) - g(k-1).
    The constraint matrix is a network matrix, so the LP optimum is the
    integral optimum.
    """
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    n = len(rows)
    vmax = max(v for _, _, v, _ in rows)
    marginal = [_g(k, alpha) - _g(k - 1, alpha) for k in range(1, n + 1)]
    kcap = sum(1 for c in marginal if c < vmax)
    if kcap == 0:
        return 0.0
    cost, r_idx, c_idx, coef = [], [], [], []
    slot_row: dict[int, int] = {}
    cover: dict[int, int] = {}
    for j, (_, a, v, d) in enumerate(rows):
        last = a + n - 1 if d == math.inf else min(a + int(d) - 1, a + n - 1)
        for t in range(a, last + 1):
            col = len(cost)
            cost.append(-v)
            r_idx.append(j)
            c_idx.append(col)
            coef.append(1.0)
            row = slot_row.setdefault(t, n + len(slot_row))
            r_idx.append(row)
            c_idx.append(col)
            coef.append(1.0)
            cover[t] = cover.get(t, 0) + 1
    for t, row in slot_row.items():
        for k in range(min(cover[t], kcap)):
            col = len(cost)
            cost.append(marginal[k])
            r_idx.append(row)
            c_idx.append(col)
            coef.append(-1.0)
    shape = (n + len(slot_row), len(cost))
    a_ub = coo_matrix((coef, (r_idx, c_idx)), shape=shape).tocsr()
    b_ub = np.concatenate([np.ones(n), np.zeros(len(slot_row))])
    res = linprog(np.array(cost), A_ub=a_ub, b_ub=b_ub, bounds=(0.0, 1.0), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the LP: {res.message}")
    return -float(res.fun)


def check_optimum(off_profit: float, lp: float) -> list[str]:
    if abs(off_profit - lp) > 1e-6:
        return [f"off_profit {off_profit!r} differs from the LP optimum {lp!r}"]
    return []


# ---------------------------------------------------------------------------
# game: the adaptive game on 2z slot-1 jobs of value 2z at alpha = 2
# ---------------------------------------------------------------------------

def game_profits(z: int, k: int) -> tuple[float, float]:
    """(off, alg) when the policy runs k of the 2z jobs at slot 1, g(k) = k**2."""
    v = 2.0 * z
    alg = k * v - _g(k, 2.0)
    off = k * (v - _g(1, 2.0)) + max(j * v - _g(j, 2.0) for j in range(2 * z - k + 1))
    return off, alg


def game_ratios(z: int) -> dict[int, float]:
    """off/alg for every k = 1..2z-1, with the leftover maximum as a running prefix max."""
    v = 2.0 * z
    prefix = [0.0] * (2 * z + 1)
    for j in range(1, 2 * z + 1):
        prefix[j] = max(prefix[j - 1], j * v - _g(j, 2.0))
    return {k: (k * (v - 1.0) + prefix[2 * z - k]) / (k * v - _g(k, 2.0))
            for k in range(1, 2 * z)}


def parse_game(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def check_game(z: int, policy: str, code: int, text: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    f = parse_game(text)
    missing = {"template", "policy", "slot1_count", "off", "alg", "ratio", "predicted"} - set(f)
    if missing:
        return [f"missing lines {sorted(missing)}"]
    errors = []
    if f["template"] != f"alpha2-lb:z={z}" or f["policy"] != policy:
        errors.append(f"header {f['template']!r} {f['policy']!r}")
    k = int(f["slot1_count"])
    if not 1 <= k <= z:
        return errors + [f"slot1_count {k} outside 1..z"]
    off, alg = game_profits(z, k)
    for name, want in (("off", off), ("alg", alg), ("ratio", off / alg),
                       ("predicted", (z * z + 2 * z * k - k) / (2 * z * k - k * k))):
        if not close(float(f[name]), want):
            errors.append(f"{name} {f[name]}, expected {want!r} at k={k}")
    m = _profitable_count([2.0 * z] * (2 * z), 2.0)
    if policy == "min-lcr":
        ratios = game_ratios(z)
        best = _smallest_argmin(ratios)
        if k != best:
            errors.append(f"min-lcr chose k={k}, off/alg is smallest at k={best}")
        if z >= 1000 and abs(off / alg - PHI_PLUS_1) > 0.01 * PHI_PLUS_1:
            errors.append(f"ratio {off / alg!r} not within 1% of phi+1")
    elif policy == "sim-lcr":
        b = beta(2.0)
        lo, hi = max(1, math.floor(b * m)), min(m, math.ceil(b * m))
        scores = {c: game_profits(z, c)[0] / game_profits(z, c)[1] for c in {lo, hi}}
        if k != _smallest_argmin(scores):
            errors.append(f"sim-lcr chose k={k}, candidates {sorted(scores)}")
    elif policy == "greedy" and k != m:
        errors.append(f"greedy chose k={k}, m={m}")
    return errors


# ---------------------------------------------------------------------------
# lowerbound: the CSV curve of one alpha
# ---------------------------------------------------------------------------

LB_Z_MAX, LB_X_GRID = 200, 64
LB_SAMPLE = tuple(range(0, LB_Z_MAX * LB_X_GRID, 97)) + (LB_Z_MAX * LB_X_GRID - 1,)


def lb_ratio(alpha: float, z: int, x: float, k: int) -> float:
    v = _g(z, alpha) - _g(z - 1, alpha) + x
    den = k * v - _g(k, alpha)
    if den <= 0.0:
        return math.inf
    return (k * (v - 1.0) + z * v - _g(z, alpha)) / den


def check_lowerbound(alpha: float, code: int, data: bytes) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    lines = data.decode("ascii").split("\n")
    n_points = LB_Z_MAX * LB_X_GRID
    if lines[0] != "alpha,z,x,k_star,value" or len(lines) != n_points + 3 or lines[-1] != "":
        return [f"layout: header {lines[0]!r}, {len(lines)} lines"]
    a_text = format(alpha, ".12g")
    errors: list[str] = []
    rows = []
    for idx, line in enumerate(lines[1:n_points + 1]):
        fields = line.split(",")
        z_want = idx // LB_X_GRID + 1
        try:
            a, z, x, k, value = fields[0], int(fields[1]), float(fields[2]), int(fields[3]), float(fields[4])
        except (ValueError, IndexError):
            errors.append(f"row {idx}: unparsable {line!r}")
            continue
        xcap = _g(z + 1, alpha) - 2.0 * _g(z, alpha) + _g(z - 1, alpha)
        if a != a_text or z != z_want:
            errors.append(f"row {idx}: alpha/z {a},{z}, expected {a_text},{z_want}")
        elif not (0.0 < x <= xcap * (1.0 + 1e-11)):
            errors.append(f"row {idx}: x={x!r} outside (0, {xcap!r}]")
        elif not 1 <= k <= z:
            errors.append(f"row {idx}: k_star={k} outside 1..{z}")
        elif not math.isfinite(value):
            errors.append(f"row {idx}: value {value!r}")
        rows.append((z, x, k, value))
        if len(errors) > 20:
            return errors
    if errors:
        return errors
    for idx in LB_SAMPLE:
        z, x, k, value = rows[idx]
        scan = [lb_ratio(alpha, z, x, c) for c in range(1, z + 1)]
        best = min(scan)
        if not close(value, best):
            errors.append(f"row {idx}: value {value!r}, minimum over k is {best!r}")
        if not close(scan[k - 1], best):
            errors.append(f"row {idx}: k_star={k} gives {scan[k - 1]!r}, minimum {best!r}")
    summary = lines[n_points + 1].split(",")
    if summary[:4] != [a_text, "", "", ""]:
        return errors + [f"summary row {lines[n_points + 1]!r}"]
    best = float(summary[4])
    top = max(r[3] for r in rows)
    if best < top:
        errors.append(f"summary {best!r} below the largest point value {top!r}")
    if not SQRT2_PLUS_1 - 1e-6 <= best <= 3.0:
        errors.append(f"summary {best!r} outside [sqrt2+1-1e-6, 3]")
    return errors


# ---------------------------------------------------------------------------
# negative controls: each feeds a check a wrong output that it must reject
# ---------------------------------------------------------------------------

def control_optimum(off_profit: float, lp: float) -> bool:
    """A flow optimum perturbed by 1e-6 (relative) must fail the LP comparison."""
    return bool(check_optimum(off_profit * (1.0 + 1e-6), lp))


def control_game(z: int, policy: str, text: str) -> bool:
    """A wrong slot1_count must fail the game check."""
    f = parse_game(text)
    k = int(f["slot1_count"])
    wrong = text.replace(f"slot1_count: {k}\n", f"slot1_count: {k + 1}\n")
    return wrong != text and bool(check_game(z, policy, 0, wrong))


def control_lowerbound(alpha: float, data: bytes) -> bool:
    """One changed digit (the value's 6th significant digit) in a sampled row must fail."""
    lines = data.decode("ascii").split("\n")
    row = LB_SAMPLE[1] + 1
    fields = lines[row].split(",")
    digits = [i for i, ch in enumerate(fields[4]) if ch.isdigit()]
    pos = digits[min(5, len(digits) - 1)]
    fields[4] = fields[4][:pos] + str((int(fields[4][pos]) + 1) % 10) + fields[4][pos + 1:]
    lines[row] = ",".join(fields)
    return bool(check_lowerbound(alpha, 0, "\n".join(lines).encode("ascii")))
