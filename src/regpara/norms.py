"""Weighted Hölder-type norms, block-slope regularity estimation, and
synthetic test fields with prescribed regularity."""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .blocks import CHI_HI, CHI_LO, make_partition, smooth_step
from .grid import COORD_MARGIN, Field, Grid, TwoParamField

# Per-scale statistics at or below this floor are treated as exactly zero
# and excluded from slope fits.
ZERO_FLOOR = 1e-290

DEFAULT_R = 2.0

# Quantile taken per scale by the checks that fit medians: D-family,
# two-point and J-decay.
MEDIAN = 0.5

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
    overwritten.  holder_norm's sups come from block_sup."""
    if mask is not None:
        samples = samples[mask]
    np.abs(samples, out=samples)
    return (np.max(samples) if sup else None,
            np.quantile(samples, MEDIAN, overwrite_input=True))


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
    lanes, band = decomp.lanes, decomp.work("symbol")
    rows = decomp.work("blocks")[:lanes]
    live = decomp.live_js
    for start in range(0, len(live), lanes):
        js = live[start : start + lanes]
        out = decomp.blocks(((decomp.half_band(j, j, out=band), f.spectrum) for j in js), rows)
        for j, vals in zip(js, out):
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


def sampled_two_param_norm(values_of_pair, grid: Grid, alpha: float, pairs: int = 4096) -> float:
    """Two-parameter norm evaluated on a random pair sample (seed 0); the
    dense array is never materialised, so this is the d=2 evaluation path.

    values_of_pair(idx_x, idx_y) takes tuples of index arrays (one per axis)
    and returns |pairs| values F(x, y).
    """
    if alpha <= 0:
        raise ValueError("two-parameter norm needs alpha > 0")
    rng = np.random.default_rng(0)
    ix = tuple(rng.integers(0, grid.n, size=pairs) for _ in range(grid.dim))
    iy = tuple(rng.integers(0, grid.n, size=pairs) for _ in range(grid.dim))
    coords = grid.coords()
    dx = np.stack([coords[d][ix] - coords[d][iy] for d in range(grid.dim)])
    dist = np.sqrt((dx**2).sum(axis=0))
    keep = dist > 0
    vals = np.abs(np.asarray(values_of_pair(ix, iy), dtype=float))
    out = vals[keep] / dist[keep] ** alpha
    return float(np.max(out)) if out.size else 0.0


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
    once per j, however many terms hold it.  The pairings of one scale go
    through the plan's stacked block transforms: those of fields held by
    several terms first, kept for the whole scale, then the others in runs
    of `lanes` per family, each run summed in term order.
    """
    if isinstance(family, SeparableFamily):
        return d_family_report([family], [alpha], mask)[0]
    if not family:
        return []
    decomp = make_partition(family[0].grid)
    fields = [u for fam in family for _, u in fam.terms]
    uses = Counter(id(u) for u in fields)
    spectra = {}
    for u in fields:
        if id(u) not in spectra:
            spectra[id(u)] = decomp.rfft(u)
    shared = [key for key, n in uses.items() if n > 1]
    kept_rows = np.empty((len(shared), *decomp.grid.shape))
    kept = dict(zip(shared, kept_rows))
    term = np.empty(decomp.grid.shape) if shared else None   # c times a kept pairing
    series = [(np.zeros(decomp.j_max + 2), np.zeros(decomp.j_max + 2)) for _ in family]
    sym, vals = decomp.work("symbol"), decomp.work("acc")
    once = decomp.work("blocks")[: decomp.lanes]
    for j in range(1, decomp.j_max + 1):
        decomp.half_gauss(j, out=sym)
        decomp.blocks(((sym, spectra[key]) for key in shared), kept_rows)
        for fam, (norms, medians) in zip(family, series):
            vals.fill(0.0)
            for run in _runs(fam.terms, kept, decomp.lanes):
                fresh = ((sym, spectra[key]) for _, key in run if key not in kept)
                paired = iter(decomp.blocks(fresh, once))
                for c, key in run:
                    if key in kept:
                        vals += np.multiply(c, kept[key], out=term)
                    else:
                        pairing = next(paired)
                        vals += np.multiply(c, pairing, out=pairing)
            norms[j + 1], medians[j + 1] = scale_stats(vals, mask=mask)
    return [NormReport.from_blocks(norms, medians, a) for (norms, medians), a in zip(series, alpha)]


def _runs(terms, kept, lanes: int):
    """Consecutive runs of (c, id(u)) over the terms, each holding at most
    `lanes` terms whose field u is not in `kept`."""
    run, fresh = [], 0
    for c, u in terms:
        if id(u) not in kept:
            if fresh == lanes:
                yield run
                run, fresh = [], 0
            fresh += 1
        run.append((c, id(u)))
    if run:
        yield run


def dyadic_separations(grid: Grid) -> list[int]:
    """Grid-step offsets 1, 2, 4, 8, 16 (those up to n/8) used for two-point
    slope checks."""
    out = []
    s = 1
    while len(out) < 5 and s <= grid.n // 8:
        out.append(s)
        s *= 2
    return out


def boundary_window(grid: Grid, margin: float = 0.15) -> np.ndarray:
    """Smooth window == 1 in the interior, vanishing near the box boundary.

    Used so that x^k * field stays continuous across the periodic wrap.
    """
    out = np.ones(grid.shape)
    for x in grid.coords():
        out = out * smooth_step((grid.box - np.abs(x)) / (margin * grid.box))
    return out


def synthesize(alpha: float, seed: int, grid: Grid, window: float = 0.0) -> Field:
    """Random-phase field with per-block sup norms 2^{-j alpha}.

    Each block is drawn on the exclusive zone of its annulus (where only
    rho_j is active), so Delta_j of the sum reproduces the block exactly and
    the fitted slope equals alpha up to rounding.  Deterministic under seed.

    Content is capped at SYNTHESIS_CAP of the lattice Nyquist radius so
    that pointwise products of a few synthesized fields do not alias around
    the Nyquist frequency.  window > 0 multiplies by a smooth collar
    vanishing near the box boundary (relative width `window`).
    """
    decomp = make_partition(grid)
    rng = np.random.default_rng(seed)
    r = grid.freq_radius()
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
    if window > 0.0:
        acc = acc * boundary_window(grid, window)
    return Field(grid, acc)
