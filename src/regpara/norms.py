"""Weighted Hölder-type norms, block-slope regularity estimation, and
synthetic test fields with prescribed regularity."""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .blocks import CHI_HI, CHI_LO, make_partition
from .grid import COORD_MARGIN, Field, Grid, TwoParamField

# Per-scale statistics at or below this floor are treated as exactly zero
# and excluded from slope fits.
ZERO_FLOOR = 1e-290

DEFAULT_R = 2.0

# Default one-sided tolerance of a slope check.
SLOPE_TOL = 0.2

# Synthesized content stays below this fraction of the lattice Nyquist
# radius, so pointwise products of a few synthesized fields do not alias.
SYNTHESIS_CAP = 1.0 / 3.0


def synthesis_top(grid: Grid) -> int:
    """Largest block fully below the synthesis anti-aliasing cap."""
    cap = SYNTHESIS_CAP * grid.max_freq_radius()
    j = 0
    while CHI_HI * 2.0 ** (j + 1) <= cap:
        j += 1
    return j


def log_scale_fit(xs, series, window: tuple[float, float] | None = None):
    """Least-squares fit log2 series ~ intercept + slope * x, the one place a
    regularity exponent is read off a per-scale series; x is the block index
    j or log2 of a separation.

    Fitted are the points with x in the inclusive window (all if None) whose
    value lies above the zero floor max(ZERO_FLOOR, 1e-13 * max(series)),
    taken over the whole series.  Returns (slope, intercept, x of the fitted
    points); slope and intercept are None when fewer than two points survive.
    """
    lo, hi = window if window is not None else (-np.inf, np.inf)
    floor = max(ZERO_FLOOR, 1e-13 * float(np.max(series)))
    used = [i for i, x in enumerate(xs) if lo <= x <= hi and series[i] > floor]
    fit_xs = [xs[i] for i in used]
    if len(used) < 2:
        return None, None, fit_xs
    coeffs = np.polyfit(np.asarray(fit_xs, dtype=float), np.log2(np.asarray(series)[used]), 1)
    return float(coeffs[0]), float(coeffs[1]), fit_xs


def scale_stats(samples: np.ndarray, mask: np.ndarray | None = None, sup: bool = True):
    """(sup, median) of |samples| over the mask: what one scale contributes
    to a per-scale series, the sup None unless asked for.  samples is
    overwritten.  holder_norm's sups come from block_sup.

    The median is np.quantile(|samples|, 0.5) bit for bit, from one
    selection: after a partition at k = n // 2, b = x[k] is the upper
    middle value and a, the max of x[:k], the lower one.  An even count
    reads numpy's linear rule b - (b - a) * 0.5, an odd count b (numpy's
    b + (next - b) * 0, NaN once an infinity enters it).  The sup is the
    max of x[k:]; it is NaN when a sample is, and the median then too."""
    if mask is not None:
        samples = samples[mask]
    x = np.abs(samples, out=samples).reshape(-1)
    k = x.size // 2
    x.partition(k)
    top = np.max(x[k:])
    med = x[k]
    if x.size % 2 == 0:
        below = np.max(x[:k])
        med = med - (med - below) * 0.5
    elif np.isinf(top):
        nxt = np.min(x[k + 1:]) if k else med
        med = med + (nxt - med) * 0.0
    return (top if sup else None, top if np.isnan(top) else med)


@dataclass
class NormReport:
    """Per-block sup norms of one field plus the fitted dyadic slope."""

    block_norms: np.ndarray          # ||Delta_j f||_{L^inf_a}, j = -1..J
    alpha: float                     # exponent the norm was evaluated at
    a: float                         # weight exponent
    window: tuple[int, int]          # inclusive j-window used for the fit
    norm: float                      # sup_j 2^{j alpha} ||Delta_j f||
    slope: float | None              # fitted regularity (None if all-zero)
    intercept: float | None
    fit_js: list[int]                # blocks the fit used
    series: np.ndarray               # the per-block series fitted, indexed j + 1

    @classmethod
    def from_blocks(cls, block_norms: np.ndarray, fit_series: np.ndarray,
                    alpha: float, a: float = 0.0) -> "NormReport":
        """Report on per-block series indexed j + 1, j = -1..J: the norm
        value from the sups, the regularity from fit_series over j in
        [2, J-2] as minus the log-scale slope (||Delta_j f|| ~ 2^{-j alpha})."""
        j_max = len(block_norms) - 2
        window = (2, j_max - 2)
        slope, intercept, fit_js = log_scale_fit(range(-1, j_max + 1), fit_series, window)
        js = np.arange(-1, j_max + 1)
        return cls(
            block_norms=block_norms,
            alpha=alpha,
            a=a,
            window=window,
            norm=float(np.max(2.0 ** (js * alpha) * block_norms)),
            slope=None if slope is None else -slope,
            intercept=intercept,
            fit_js=fit_js,
            series=fit_series,
        )

    def lines(self) -> list[str]:
        out = [f"# j norm (alpha={self.alpha} a={self.a} r={DEFAULT_R})"]
        for j, v in zip(range(-1, len(self.block_norms) - 1), self.block_norms):
            out.append(f"{j} {v:.12e}")
        out.append(f"norm {self.norm:.12e}")
        out.append(f"window {self.window[0]} {self.window[1]}")
        if self.slope is None:
            out.append("slope none")
        else:
            out.append(f"slope {self.slope:.6f}")
            out.append(f"intercept {self.intercept:.6f}")
        return out

    def __str__(self):
        return "\n".join(self.lines())


INSUFFICIENT = "insufficient-scales"


def slope_verdict(slope: float | None, target: float, tol: float) -> str:
    """pass, FAIL or insufficient-scales: the one verdict on a fitted
    regularity.  Norm-membership checks are one-sided: decaying faster than
    the target exponent never violates a C^alpha / D^alpha bound.  Without a
    slope (fewer than two usable scales) the verdict is insufficient-scales:
    not a failure, but never a pass."""
    if slope is None:
        return INSUFFICIENT
    return "pass" if slope >= target - tol else "FAIL"


@dataclass
class Check:
    name: str
    passed: bool
    value: float | None
    target: float | None
    tol: float | None
    # a slope check whose series had too few usable scales to fit: how many
    scales: int | None = None
    # the per-block data of a check made on a NormReport
    norm: NormReport | None = None

    @property
    def verdict(self) -> str:
        """pass, FAIL or insufficient-scales."""
        if self.scales is not None:
            return INSUFFICIENT
        return "pass" if self.passed else "FAIL"

    def line(self) -> str:
        bits = [f"{self.name} {self.verdict}"]
        if self.scales is not None:
            bits.append(f"scales={self.scales}")
        if self.value is not None:
            bits.append(f"value={self.value:.6g}")
        if self.target is not None:
            bits.append(f"target={self.target:.6g}")
        if self.tol is not None:
            bits.append(f"tol={self.tol:.3g}")
        return " ".join(bits)


@dataclass
class Report:
    """Named checks: every pass/FAIL of the library and the command line."""

    title: str
    checks: list[Check] = field(default_factory=list)

    def add(self, name, passed, value=None, target=None, tol=None) -> Check:
        self.checks.append(Check(name, bool(passed), value, target, tol))
        return self.checks[-1]

    def add_slope(self, name, slope, target, tol=SLOPE_TOL, *, scales: int,
                  norm: NormReport | None = None) -> Check:
        """A slope check under slope_verdict; `scales` usable scales are
        named when there are too few to fit."""
        verdict = slope_verdict(slope, target, tol)
        self.checks.append(Check(name, verdict != "FAIL", slope, target, tol,
                                 scales if verdict == INSUFFICIENT else None, norm))
        return self.checks[-1]

    def add_norm(self, name, norm: NormReport, target, tol=SLOPE_TOL) -> Check:
        """A slope check on a NormReport's fitted regularity, which it keeps."""
        return self.add_slope(name, norm.slope, target, tol, scales=len(norm.fit_js), norm=norm)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = [f"# {self.title}"]
        out.extend(c.line() for c in self.checks)
        out.append(f"overall {'pass' if self.ok else 'FAIL'}")
        return out


def interior_box(grid: Grid) -> slice:
    """Indices, along every axis, of the points at relative distance >=
    COORD_MARGIN from the box boundary: the interior is this slice on each
    axis."""
    inside = np.flatnonzero(np.abs(grid.axis()) <= (1.0 - COORD_MARGIN) * grid.box)
    return slice(int(inside[0]), int(inside[-1]) + 1) if inside.size else slice(0, 0)


def interior_mask(grid: Grid) -> np.ndarray:
    """Boolean mask of the interior box; sup norms restricted to it ignore
    periodic-wrap artifacts of true-coordinate polynomials."""
    out = np.zeros(grid.shape, dtype=bool)
    out[(interior_box(grid),) * grid.dim] = True
    return out


def block_sup(vals: np.ndarray, mask=None):
    """max |vals[mask]| (over all of vals if mask is None) bit for bit,
    without an abs pass; a box mask, a tuple of slices, is read as a view.
    A zero sup is +0.0, also of -0.0 values."""
    sel = vals if mask is None else vals[mask]
    return max(sel.max(), -sel.min()) + 0.0


def holder_norm(f: Field, alpha: float, a: float = 0.0, mask=None) -> NormReport:
    """Weighted Hölder norm data: sup_j 2^{j alpha} ||Delta_j f||_{L^inf_a}.

    An optional mask restricts the sups (used by model validators to
    exclude the periodic-wrap collar): a boolean array, or a box as a tuple
    of slices, which `block_sup` reads without a copy.  The slope is fitted
    on the sups themselves, over j in [2, J-2].  Blocks whose symbol
    vanishes on the lattice are not transformed; their sup is 0."""
    decomp = make_partition(f.grid)
    w = f.grid.weight(a) if a else None
    norms = np.zeros(decomp.j_max + 2)
    live = decomp.live_js
    for j, vals in zip(live, decomp.blocks((decomp.half_rho(j), f.spectrum) for j in live)):
        if w is not None:
            vals *= w
        norms[j + 1] = block_sup(vals, mask)
    return NormReport.from_blocks(norms, norms, alpha, a)


def two_param_norm(lam: TwoParamField, alpha: float) -> float:
    """sup |F(x,y)| / |x-y|^alpha over off-diagonal pairs."""
    if alpha <= 0:
        raise ValueError("two-parameter norm needs alpha > 0")
    x = lam.grid.axis()
    dist = np.abs(x[:, None] - x[None, :])
    off = dist > 0
    return float(np.max(np.abs(lam.values[off]) / dist[off] ** alpha))


class SeparableFamily:
    """A family of distributions Lambda_x(y) = sum_i c_i(x) u_i(y).

    Model recenterings and reconstructions on the grid are all of this
    separable form, which keeps D-norm pairings and two-parameter
    paraproducts linear in the number of terms.
    """

    def __init__(self, grid: Grid, terms: list[tuple[np.ndarray, np.ndarray]]):
        self.grid = grid
        self.terms = [
            (np.asarray(c, dtype=float), np.asarray(u, dtype=float)) for c, u in terms
        ]
        for c, u in self.terms:
            if c.shape != grid.shape or u.shape != grid.shape:
                raise ValueError("separable term shape mismatch")

    def diagonal(self) -> Field:
        """x -> Lambda_x(x)."""
        acc = np.zeros(self.grid.shape)
        for c, u in self.terms:
            acc += c * u
        return Field(self.grid, acc)


def d_family_report(family, alpha, mask: np.ndarray | None = None):
    """D^alpha data: per-j sup_x |<Lambda_x, P_j(x-.)>| plus slope.

    P_j is the Gaussian low-pass window, which scales cleanly on the integer
    frequency lattice; it vanishes for j <= 0 under the strict S_j
    convention, so only j >= 1 is paired.  The slope is fitted on the per-j
    medians over the mask, which drift less than the sups on random-phase
    data, over j in [2, J-2].

    `family` is one SeparableFamily, or a list of them on one grid with a
    list of exponents `alpha`, giving a list of reports.  Each distinct
    field u (the same array) among all terms is transformed once and paired
    once per j, however many terms hold it.  A field whose half spectrum is
    zero off the origin (a constant, as Pi(1) = 1) is its own pairing at
    every scale, each Gaussian symbol being exactly 1 there, and is not
    paired.  The pairings of one scale come from one run of the plan's
    block transforms: those of fields held by several terms first, copied
    into rows kept for the whole scale, then the others in family and term
    order, each taken as its term is summed.
    """
    if isinstance(family, SeparableFamily):
        return d_family_report([family], [alpha], mask)[0]
    if not family:
        return []
    decomp = make_partition(family[0].grid)
    fields = [u for fam in family for _, u in fam.terms]
    uses = Counter(id(u) for u in fields)
    spectra, constant = {}, {}
    for u in fields:
        if id(u) not in spectra:
            spectra[id(u)] = spec = decomp.rfft(u)
            if not spec.flat[1:].any():
                constant[id(u)] = u
    shared = [key for key, n in uses.items() if n > 1 and key not in constant]
    fresh = [key for key, n in uses.items() if n == 1 and key not in constant]
    kept = dict(zip(shared, np.empty((len(shared), *decomp.grid.shape))))
    kept.update(constant)
    term = np.empty(decomp.grid.shape) if shared else None   # c times a kept pairing
    vals = np.empty(decomp.grid.shape)
    series = [(np.zeros(decomp.j_max + 2), np.zeros(decomp.j_max + 2)) for _ in family]
    for j in range(1, decomp.j_max + 1):
        sym = decomp.half_gauss(j)
        rows = decomp.blocks((sym, spectra[key]) for key in shared + fresh)
        for key in shared:
            kept[key][...] = next(rows)
        for fam, (norms, medians) in zip(family, series):
            vals.fill(0.0)
            for c, u in fam.terms:
                if id(u) in kept:
                    vals += np.multiply(c, kept[id(u)], out=term)
                else:
                    pairing = next(rows)
                    vals += np.multiply(c, pairing, out=pairing)
                    del pairing   # else it keeps this scale's ring beside the next's
            norms[j + 1], medians[j + 1] = scale_stats(vals, mask=mask)
    return [NormReport.from_blocks(norms, medians, a) for (norms, medians), a in zip(series, alpha)]


def dyadic_separations(grid: Grid) -> list[int]:
    """Grid-step offsets 1, 2, 4, 8, 16 (those up to n/8) used for two-point
    slope checks."""
    out = []
    s = 1
    while len(out) < 5 and s <= grid.n // 8:
        out.append(s)
        s *= 2
    return out


def synthesize(alpha: float, seed: int, grid: Grid) -> Field:
    """Random-phase field with per-block sup norms 2^{-j alpha}.

    Each block is drawn on the exclusive zone of its annulus (where only
    rho_j is active), so Delta_j of the sum reproduces the block exactly and
    the fitted slope equals alpha up to rounding.  Deterministic under seed.

    Content is capped at SYNTHESIS_CAP of the lattice Nyquist radius so
    that pointwise products of a few synthesized fields do not alias around
    the Nyquist frequency.
    """
    decomp = make_partition(grid)
    rng = np.random.default_rng(seed)
    r = decomp.full(decomp.radius)
    cap = SYNTHESIS_CAP * grid.max_freq_radius()
    acc = np.zeros(grid.shape)
    for j in range(0, decomp.j_max + 1):
        # exclusive zone of block j: chi(2^{-(j+1)} r) = 1 and chi(2^{-j} r) = 0
        zone = (r >= CHI_HI * 2.0**j) & (r <= CHI_LO * 2.0 ** (j + 1)) & (r <= cap)
        if not np.any(zone):
            continue
        coeff = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        u = np.fft.ifftn(np.where(zone, coeff, 0.0)).real
        sup = np.max(np.abs(u))
        if sup == 0.0:
            continue
        acc += (2.0 ** (-j * alpha) / sup) * u
    return Field(grid, acc)
