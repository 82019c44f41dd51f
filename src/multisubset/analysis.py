"""Exponent analysis for the fast transform variants.

Everything here works with exponents per ground-set element: an
algorithm touching 2^(c*n) cells has exponent c and "base" 2^c.  The
cost of the rectangular products is expressed through an upper bound on
omega(k), the exponent of N x N^k x N matrix multiplication, and the
parameter optimizers pick the column fraction sigma (and row fraction
tau, and per-round block profile kappa) that balance the rectangular
work against the direct superset scans.

The columns and rows-columns optimizers take one of two bound modes:

* "line": the slope-one affine bound k + 1.271591 through the k = 1.75
  anchor, which is what the closed-form balance equations assume; the
  CLI accepts "paper" as an alias for this mode.
* "table": chords between the anchors of an OmegaTable.

The cover search always reads omega through an OmegaTable.  Every table
argument defaults to DEFAULT_OMEGA_TABLE, the cited anchors below.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

# Intercept of the slope-one line through the (1.75, 3.021591) anchor.
LINE_OMEGA_INTERCEPT = 3.021591 - 1.75

MODE_LINE = "line"
MODE_TABLE = "table"


def entropy(x: float) -> float:
    """Binary entropy H(x) in bits, with H(0) = H(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"entropy argument must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def entropy_base(x: float) -> float:
    """b(x) = 2^H(x) = x^(-x) * (1-x)^(x-1), the growth base of C(n, xn)."""
    return 2.0 ** entropy(x)


def _entropy_np(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    lo = np.clip(x, 1e-300, 1.0)
    hi = np.clip(1.0 - x, 1e-300, 1.0)
    out = -x * np.log2(lo) - (1.0 - x) * np.log2(hi)
    return np.where((x <= 0.0) | (x >= 1.0), 0.0, out)


def omega_line(k: float) -> float:
    """Slope-one line k + 1.271591 through the k = 1.75 anchor.

    It is a proven bound on omega(k) only for k >= 1.75, where it is the
    slope-one continuation of that anchor.  Below it undercuts known
    bounds: at k = 0 it gives 1.27, under omega(0) = 2.  The published
    columns and rows-columns constants are derived with it.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    return LINE_OMEGA_INTERCEPT + k


@dataclass(frozen=True)
class OmegaTable:
    """Upper bound on omega(k) by chords between anchors (k_i, w_i).

    omega(k) is convex in k (Lotti and Romani, TCS 1983), so the chord
    between two valid bounds is itself a valid bound.  Below the first
    anchor the bound stays flat (monotonicity), above the last it
    continues with slope one (column-block splitting).  Anchors must rise
    with slope between zero and one: omega is nondecreasing and
    omega(k + d) <= omega(k) + d, so a steeper or falling anchor is
    implied by its neighbour, and the chords never exceed the staircase
    min_i w_i + max(0, k - k_i).
    """

    anchors: tuple[tuple[float, float], ...]

    def __post_init__(self):
        anchors = tuple((float(k), float(w)) for k, w in self.anchors)
        if not anchors:
            raise ValueError("need at least one anchor")
        if not all(math.isfinite(k) and math.isfinite(w) for k, w in anchors):
            raise ValueError("anchors must be finite")
        if any(k < 0.0 or w < 2.0 for k, w in anchors):
            raise ValueError("anchors need k >= 0 and bound >= 2")
        for (a, wa), (b, wb) in zip(anchors, anchors[1:]):
            if not a < b:
                raise ValueError("anchor k values must be strictly increasing")
            if not 0.0 <= wb - wa <= b - a:
                raise ValueError(
                    f"bound from k={a:g} to k={b:g} must rise by between 0 and {b - a:g}"
                )
        object.__setattr__(self, "anchors", anchors)

    def upper(self, k: float) -> float:
        if k < 0:
            raise ValueError("k must be >= 0")
        anchors = self.anchors
        i = bisect.bisect_left(anchors, (k, -math.inf))
        if i == len(anchors):
            a, w = anchors[-1]
            return w + (k - a)
        b, wb = anchors[i]
        if i == 0 or k == b:
            return wb
        a, wa = anchors[i - 1]
        return wa + (wb - wa) * (k - a) / (b - a)

    def upper_np(self, k: np.ndarray) -> np.ndarray:
        k = np.asarray(k, dtype=float)
        ks, ws = zip(*self.anchors)
        return np.where(k > ks[-1], ws[-1] + (k - ks[-1]), np.interp(k, ks, ws))


# Each anchor is a proven upper bound on omega(k).
DEFAULT_OMEGA_TABLE = OmegaTable((
    # outer product: N x 1 x N needs N^2 multiplications
    (0.0, 2.0),
    # alpha > 0.31389: Le Gall and Urrutia, "Improved rectangular matrix
    # multiplication using powers of the Coppersmith-Winograd tensor", SODA 2018
    (0.31389, 2.0),
    # omega < 2.3728639: Le Gall, "Powers of tensors and fast matrix
    # multiplication", ISSAC 2014
    (1.0, 2.3728639),
    # omega(1.75) < 3.021591: Le Gall and Urrutia, SODA 2018
    (1.75, 3.021591),
    # omega(2) < 3.251640, rounded up: Le Gall and Urrutia, SODA 2018
    (2.0, 3.252),
))


def resolve_omega(mode: str, table: OmegaTable | None = None):
    """Map a mode id to (canonical mode, omega bound function)."""
    if mode in (MODE_LINE, "paper"):
        if table is not None:
            raise ValueError("an omega table applies to table mode only")
        return MODE_LINE, omega_line
    if mode == MODE_TABLE:
        return MODE_TABLE, (table or DEFAULT_OMEGA_TABLE).upper
    raise ValueError(f"unknown mode {mode!r}; expected 'line'/'paper' or 'table'")


@dataclass
class OptimizationReport:
    """Optimizer output: chosen parameters and the per-n exponent/base."""

    algorithm: str
    mode: str
    parameters: dict[str, float]
    exponent: float
    base: float
    resolution: float | None = None
    uncertainty: float | None = None
    notes: str = ""

    def to_json_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "mode": self.mode,
            "parameters": dict(self.parameters),
            "exponent": self.exponent,
            "base": self.base,
            "resolution": self.resolution,
            "uncertainty": self.uncertainty,
            "notes": self.notes,
        }


# ---------------------------------------------------------------------------
# columns algorithm


def _check_open(value: float, lo: float, hi: float, name: str) -> None:
    if not (lo < value < hi):
        raise ValueError(f"{name} must lie strictly between {lo:.6g} and {hi:.6g}")


def columns_terms(sigma: float, omega_fn=omega_line) -> tuple[float, float]:
    """(rectangular-product exponent, direct-scan exponent), both per n."""
    _check_open(sigma, 1.0 / 3.0, 1.0 / 2.0, "sigma")
    h = entropy(sigma)
    return omega_fn(2.0 * h) / 2.0, 1.0 - sigma + h


def columns_exponent(sigma: float, omega_fn=omega_line) -> float:
    return max(columns_terms(sigma, omega_fn))


def optimize_columns(
    mode: str = MODE_LINE, table: OmegaTable | None = None, tol: float = 1e-12
) -> OptimizationReport:
    """Balance the two cost terms by bisection on their difference.

    The rectangular term increases with sigma while the scan term
    decreases, so the max of the two is minimized where they cross.
    """
    mode_id, omega_fn = resolve_omega(mode, table)
    lo = 1.0 / 3.0 + 1e-9
    hi = 0.5 - 1e-9

    def diff(s: float) -> float:
        rect, scan = columns_terms(s, omega_fn)
        return rect - scan

    if not (diff(lo) < 0.0 < diff(hi)):
        raise ValueError(
            "omega bound admits no balance point for sigma in (1/3, 1/2)"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if diff(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    sigma = 0.5 * (lo + hi)
    exponent = columns_exponent(sigma, omega_fn)
    return OptimizationReport(
        algorithm="columns",
        mode=mode_id,
        parameters={"sigma": sigma},
        exponent=exponent,
        base=2.0 ** exponent,
        notes="two cost terms balanced by bisection",
    )


# ---------------------------------------------------------------------------
# rows-and-columns algorithm


def rows_columns_terms(
    sigma: float, tau: float, omega_fn=omega_line
) -> tuple[float, float, float]:
    """(trimmed-scan, rectangular-product, large-column scan) exponents."""
    _check_open(sigma, 1.0 / 3.0, 1.0 / 2.0, "sigma")
    _check_open(tau, 1.0 / 2.0, 2.0 / 3.0, "tau")
    hs = entropy(sigma)
    ht = entropy(tau)
    t_scan = (math.log2(3.0) + tau + ht) / 2.0
    t_rect = ht * omega_fn(2.0 * hs / ht) / 2.0
    t_direct = 1.0 - sigma + hs
    return t_scan, t_rect, t_direct


def rows_columns_exponent(sigma: float, tau: float, omega_fn=omega_line) -> float:
    return max(rows_columns_terms(sigma, tau, omega_fn))


# Finest grid step of optimize_rows_columns' table mode.  Its time grows with
# 1/resolution^2: 17 s of CPU at this step on a 2-vCPU Xeon VM.
MIN_GRID_RESOLUTION = 1e-5


def optimize_rows_columns(
    mode: str = MODE_LINE,
    table: OmegaTable | None = None,
    tol: float = 1e-12,
    resolution: float = 2e-4,
) -> OptimizationReport:
    """Pick (sigma, tau) minimizing the worst of the three cost terms.

    In line mode the slope-one bound makes two balance equations exact:
    equating the rectangular and large-column terms forces
    sigma = 1 - (1.271591/2) * H(tau), and the remaining one-variable
    balance is solved by bisection in tau.  Table mode falls back to a
    grid search at the given resolution, which must lie in
    [MIN_GRID_RESOLUTION, 1/6): from 1/6 up the sigma and tau grids are
    empty.
    """
    if not MIN_GRID_RESOLUTION <= resolution < 1.0 / 6.0:
        raise ValueError(
            f"resolution must lie in [{MIN_GRID_RESOLUTION:g}, 1/6), got {resolution}"
        )
    mode_id, omega_fn = resolve_omega(mode, table)
    lo_t = 0.5 + 1e-9
    hi_t = 2.0 / 3.0 - 1e-9
    if mode_id == MODE_LINE:

        def sigma_for(tau: float) -> float:
            return 1.0 - 0.5 * LINE_OMEGA_INTERCEPT * entropy(tau)

        def diff(tau: float) -> float:
            s = sigma_for(tau)
            t_scan, _, t_direct = rows_columns_terms(s, tau, omega_fn)
            return t_scan - t_direct

        if not (diff(lo_t) < 0.0 < diff(hi_t)):
            raise ValueError(
                "omega bound admits no balance point for tau in (1/2, 2/3)"
            )
        lo, hi = lo_t, hi_t
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if diff(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        tau = 0.5 * (lo + hi)
        sigma = sigma_for(tau)
        exponent = rows_columns_exponent(sigma, tau, omega_fn)
        return OptimizationReport(
            algorithm="rows-columns",
            mode=mode_id,
            parameters={"sigma": sigma, "tau": tau},
            exponent=exponent,
            base=2.0 ** exponent,
            notes="balance equations solved by bisection",
        )

    tab = table or DEFAULT_OMEGA_TABLE
    sig_grid = np.arange(1.0 / 3.0 + resolution, 0.5, resolution)
    tau_grid = np.arange(0.5 + resolution, 2.0 / 3.0, resolution)
    hs = _entropy_np(sig_grid)
    best = (math.inf, math.nan, math.nan)
    for tau in tau_grid:
        ht = entropy(tau)
        t_scan = (math.log2(3.0) + tau + ht) / 2.0
        t_rect = ht * tab.upper_np(2.0 * hs / ht) / 2.0
        t_direct = 1.0 - sig_grid + hs
        worst = np.maximum(np.maximum(t_rect, t_direct), t_scan)
        j = int(np.argmin(worst))
        if worst[j] < best[0]:
            best = (float(worst[j]), float(sig_grid[j]), float(tau))
    exponent, sigma, tau = best
    return OptimizationReport(
        algorithm="rows-columns",
        mode=mode_id,
        parameters={"sigma": sigma, "tau": tau},
        exponent=exponent,
        base=2.0 ** exponent,
        resolution=resolution,
        uncertainty=2.0 * resolution,
        notes="grid search over (sigma, tau)",
    )


# ---------------------------------------------------------------------------
# cover-columns max-min exponent


def _check_sigma_kappa(sigma: float, kappa: float, which: str) -> None:
    if not (0.0 <= sigma <= kappa <= 1.0):
        raise ValueError(
            f"need 0 <= sigma{which} <= kappa{which} <= 1, got ({sigma}, {kappa})"
        )


def gamma_terms(
    s1: float, s2: float, k1: float, k2: float
) -> tuple[float, float, float, float, float]:
    """(alpha1, alpha2, beta1, beta2, beta_min) for a round/block profile.

    alpha_p is the per-N exponent of in-block column count, beta_p of the
    surviving row count; sigma/kappa evaluates to 0 when both are 0.
    """
    _check_sigma_kappa(s1, k1, "1")
    _check_sigma_kappa(s2, k2, "2")

    def pair(sig: float, kap: float) -> tuple[float, float]:
        ratio = 0.0 if kap == 0.0 else sig / kap
        alpha = kap * entropy(ratio)
        beta = 1.0 - kap + kap * entropy(max(ratio, 0.5))
        return alpha, beta

    a1, b1 = pair(s1, k1)
    a2, b2 = pair(s2, k2)
    return a1, a2, b1, b2, min(b1, b2)


def gamma_value(
    s1: float,
    s2: float,
    k1: float,
    k2: float,
    table: OmegaTable | None = None,
) -> float:
    """Per-(n/2) exponent of one round under block profile (kappa1, kappa2).

    The rectangular product runs on beta_min-sized square outer
    dimensions; beta_min = 0 degenerates to the linear term alpha1+alpha2.
    """
    tab = table or DEFAULT_OMEGA_TABLE
    a1, a2, b1, b2, bmin = gamma_terms(s1, s2, k1, k2)
    core = entropy(s1) + entropy(s2) - a1 - a2 + b1 + b2
    if bmin <= 0.0:
        return core + a1 + a2
    return core + bmin * (tab.upper((a1 + a2) / bmin) - 2.0)


def _gamma_value_grid(
    s1: float, s2: float, kap1: np.ndarray, kap2: np.ndarray, tab: OmegaTable
) -> np.ndarray:
    def pair(sig: float, kap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ratio = np.where(kap > 0.0, sig / np.where(kap > 0.0, kap, 1.0), 0.0)
        alpha = kap * _entropy_np(ratio)
        beta = 1.0 - kap + kap * _entropy_np(np.maximum(ratio, 0.5))
        return alpha, beta

    a1, b1 = pair(s1, kap1)
    a2, b2 = pair(s2, kap2)
    a1 = a1[:, None]
    b1 = b1[:, None]
    a2 = a2[None, :]
    b2 = b2[None, :]
    bmin = np.minimum(b1, b2)
    asum = a1 + a2
    z = np.where(bmin > 0.0, asum / np.where(bmin > 0.0, bmin, 1.0), 0.0)
    rect = np.where(bmin > 0.0, bmin * (tab.upper_np(z) - 2.0), asum)
    return entropy(s1) + entropy(s2) - asum + b1 + b2 + rect


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(fn, lo: float, hi: float, tol: float) -> float:
    if hi - lo <= tol:
        return 0.5 * (lo + hi)
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_GOLDEN * (hi - lo)
            f1 = fn(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_GOLDEN * (hi - lo)
            f2 = fn(x2)
    return 0.5 * (lo + hi)


def gamma_inner_min(
    s1: float,
    s2: float,
    table: OmegaTable | None = None,
    grid_points: int = 161,
    tol: float = 1e-8,
    refine: bool = True,
) -> tuple[float, float, float]:
    """min over (kappa1, kappa2) of gamma_value: (value, kappa1, kappa2).

    Grid seed (first-occurrence argmin, i.e. ties toward smaller kappa)
    followed by golden-section coordinate descent.
    """
    tab = table or DEFAULT_OMEGA_TABLE
    kap1 = np.linspace(s1, 1.0, grid_points)
    kap2 = np.linspace(s2, 1.0, grid_points)
    grid = _gamma_value_grid(s1, s2, kap1, kap2, tab)
    flat = int(np.argmin(grid))
    i, j = divmod(flat, grid_points)
    k1, k2 = float(kap1[i]), float(kap2[j])
    best = float(grid[i, j])
    if not refine:
        return best, k1, k2
    for _ in range(60):
        k1_new = _golden_min(
            lambda k: gamma_value(s1, s2, k, k2, tab), s1, 1.0, tol
        )
        k2_new = _golden_min(
            lambda k: gamma_value(s1, s2, k1_new, k, tab), s2, 1.0, tol
        )
        moved = abs(k1_new - k1) + abs(k2_new - k2)
        k1, k2 = k1_new, k2_new
        if moved < tol:
            break
    value = gamma_value(s1, s2, k1, k2, tab)
    if value > best:  # keep the grid point if descent drifted upward
        return best, float(kap1[i]), float(kap2[j])
    return value, k1, k2


def gamma_search(
    table: OmegaTable | None = None,
    resolution: float = 1e-3,
    coarse: float = 0.01,
    candidate_window: float = 0.02,
    max_candidates: int = 40,
) -> OptimizationReport:
    """max over (sigma1, sigma2) of the inner min: the overall exponent.

    Deterministic two-stage search: a coarse symmetric grid over
    sigma1 <= sigma2 (grid-seeded inner min only), then local patches at
    the requested resolution (a whole fraction of `coarse`) around every
    near-maximal coarse point with the fully refined inner
    minimization.  Reports gamma, the per-n exponent gamma/2, and base
    2^(gamma/2); the uncertainty field is the largest drop to a
    neighboring refined grid point.
    """
    if resolution < 1e-3:
        raise ValueError("resolution below 1e-3 is not supported")
    fine_per_coarse = round(coarse / resolution)
    if fine_per_coarse < 1 or not math.isclose(coarse / resolution, fine_per_coarse):
        raise ValueError(f"resolution {resolution} must divide the coarse step {coarse} "
                         "a whole number of times")
    tab = table or DEFAULT_OMEGA_TABLE

    def coarse_value(s1: float, s2: float) -> float:
        return gamma_inner_min(s1, s2, tab, grid_points=121, refine=False)[0]

    steps = int(round(1.0 / coarse))
    coarse_vals: dict[tuple[int, int], float] = {}
    best_coarse = -math.inf
    for i in range(steps + 1):
        for j in range(i, steps + 1):
            v = coarse_value(i * coarse, j * coarse)
            coarse_vals[(i, j)] = v
            if v > best_coarse:
                best_coarse = v
    candidates = [ij for ij, v in coarse_vals.items() if v >= best_coarse - candidate_window]
    candidates.sort(key=lambda ij: -coarse_vals[ij])
    candidates = candidates[:max_candidates]

    cache: dict[tuple[int, int], tuple[float, float, float]] = {}

    def refined(si: int, sj: int) -> tuple[float, float, float]:
        if (si, sj) not in cache:
            s1 = min(si, sj) * resolution
            s2 = max(si, sj) * resolution
            cache[(si, sj)] = gamma_inner_min(s1, s2, tab)
        return cache[(si, sj)]

    fine_steps = steps * fine_per_coarse
    best = (-math.inf, 0, 0, 0.0, 0.0)
    for ci, cj in candidates:
        for di in range(-fine_per_coarse, fine_per_coarse + 1):
            for dj in range(-fine_per_coarse, fine_per_coarse + 1):
                si = ci * fine_per_coarse + di
                sj = cj * fine_per_coarse + dj
                if not (0 <= si <= fine_steps and 0 <= sj <= fine_steps):
                    continue
                si, sj = min(si, sj), max(si, sj)
                value, k1, k2 = refined(si, sj)
                if value > best[0]:
                    best = (value, si, sj, k1, k2)
    gamma, si, sj, k1, k2 = best
    neighbors = []
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        ni, nj = si + di, sj + dj
        if 0 <= ni <= fine_steps and 0 <= nj <= fine_steps:
            neighbors.append(refined(min(ni, nj), max(ni, nj))[0])
    uncertainty = max((gamma - v for v in neighbors), default=0.0)
    exponent = gamma / 2.0
    return OptimizationReport(
        algorithm="cover",
        mode=MODE_TABLE,
        parameters={
            "sigma1": si * resolution,
            "sigma2": sj * resolution,
            "kappa1": k1,
            "kappa2": k2,
            "gamma": gamma,
        },
        exponent=exponent,
        base=2.0 ** exponent,
        resolution=resolution,
        uncertainty=uncertainty,
        notes="outer max on sigma grid with local refinement; inner min by "
        "kappa grid plus coordinate descent",
    )


# ---------------------------------------------------------------------------
# binomial growth facts


@dataclass
class BinomFactsReport:
    """Outcome of the exact binomial sanity checks for one n."""

    n: int
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def binom_facts_check(n: int) -> BinomFactsReport:
    """Exact verification of the entropy bounds and the 2^k growth break.

    Checks, for 1 <= k <= n/2, the chain
    (2n)^(-1/2) * b(k/n)^n <= C(n,k) <= sum_{j<=k} C(n,j) <= b(k/n)^n,
    and that C(n,k) * 2^k grows exactly while 3k <= 2n - 1.
    """
    if not 1 <= n <= 40:
        raise ValueError("n must lie in [1, 40]")
    report = BinomFactsReport(n)
    for k in range(1, n // 2 + 1):
        choose = math.comb(n, k)
        partial = sum(math.comb(n, j) for j in range(k + 1))
        upper = entropy_base(k / n) ** n
        lower = upper / math.sqrt(2.0 * n)
        if not lower <= choose:
            report.violations.append(f"lower entropy bound fails at k={k}")
        if not choose <= partial:
            report.violations.append(f"partial-sum ordering fails at k={k}")
        if not partial <= upper:
            report.violations.append(f"upper entropy bound fails at k={k}")
    terms = [math.comb(n, k) << k for k in range(n + 1)]
    for k in range(n):
        grows = terms[k + 1] >= terms[k]
        predicted = 3 * k <= 2 * n - 1
        if grows != predicted:
            report.violations.append(f"growth breakpoint mismatch at k={k}")
    peak = next(k for k in range(n + 1) if 3 * k > 2 * n - 1)
    if max(terms) != terms[min(peak, n)]:
        report.violations.append("maximum not at the predicted breakpoint")
    return report
