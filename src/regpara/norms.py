"""Weighted Hölder-type norms, block-slope regularity estimation, and
synthetic test fields with prescribed regularity."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blocks import CHI_HI, CHI_LO, BlockDecomposition, make_partition, smooth_step
from .grid import Field, Grid, TwoParamField

# Per-block norms at or below this floor are treated as exactly zero and
# excluded from slope fits.
ZERO_FLOOR = 1e-290

DEFAULT_R = 2.0


def default_fit_window(decomp: BlockDecomposition) -> tuple[int, int]:
    """Fit window j in [2, J-2]; boundary blocks are excluded."""
    return (2, decomp.j_max - 2)


def synthesis_top(grid: Grid, max_freq_fraction: float = 1.0 / 3.0) -> int:
    """Largest block fully below the synthesis anti-aliasing cap."""
    cap = max_freq_fraction * grid.max_freq_radius()
    j = 0
    while CHI_HI * 2.0 ** (j + 1) <= cap:
        j += 1
    return j


def fit_slope(js: np.ndarray, lognorms: np.ndarray) -> tuple[float, float]:
    """Least-squares fit lognorm ~ intercept - slope * j.

    The returned slope is the estimated regularity alpha with
    ||Delta_j f|| ~ 2^{-j alpha}.
    """
    if len(js) < 2:
        raise ValueError("slope fit needs at least two blocks")
    coeffs = np.polyfit(js, lognorms, 1)
    return -float(coeffs[0]), float(coeffs[1])


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
    r: float = DEFAULT_R             # model-metric constant, config only
    fit_js: list[int] = field(default_factory=list)

    def lines(self) -> list[str]:
        out = [f"# j norm (alpha={self.alpha} a={self.a} r={self.r})"]
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


def report_from_block_norms(
    norms: np.ndarray,
    alpha: float,
    a: float,
    window: tuple[int, int] | None,
    decomp: BlockDecomposition,
    r: float = DEFAULT_R,
    fit_series: np.ndarray | None = None,
) -> NormReport:
    """Assemble a NormReport: the norm value always uses the sup series; the
    slope fit may use a separate (e.g. quantile) series for statistical
    robustness of the exponent estimate."""
    if window is None:
        window = default_fit_window(decomp)
    js_all = np.arange(-1, decomp.j_max + 1)
    norm = float(np.max(2.0 ** (js_all * alpha) * norms))
    series = norms if fit_series is None else fit_series
    lo, hi = window
    floor = max(ZERO_FLOOR, 1e-13 * float(np.max(series)))
    sel = [j for j in range(lo, hi + 1) if series[j + 1] > floor]
    if len(sel) >= 2:
        slope, intercept = fit_slope(
            np.array(sel, dtype=float), np.log2(series[np.array(sel) + 1])
        )
    else:
        slope, intercept = None, None
    return NormReport(
        block_norms=norms,
        alpha=alpha,
        a=a,
        window=window,
        norm=norm,
        slope=slope,
        intercept=intercept,
        r=r,
        fit_js=sel,
    )


def interior_mask(grid: Grid, margin: float | None = None) -> np.ndarray:
    """Boolean mask of points at relative distance >= margin from the box
    boundary; sup norms restricted to it ignore periodic-wrap artifacts of
    true-coordinate polynomials."""
    if margin is None:
        from .grid import COORD_MARGIN

        margin = COORD_MARGIN
    out = np.ones(grid.shape, dtype=bool)
    for x in grid.coords():
        out &= np.abs(x) <= (1.0 - margin) * grid.box
    return out


def holder_norm(
    f: Field,
    alpha: float,
    a: float = 0.0,
    window: tuple[int, int] | None = None,
    r: float = DEFAULT_R,
    mask: np.ndarray | None = None,
    quantile: float = 1.0,
) -> NormReport:
    """Weighted Hölder norm data: sup_j 2^{j alpha} ||Delta_j f||_{L^inf_a}.

    An optional boolean mask restricts the sup (used by model validators to
    exclude the periodic-wrap collar).  quantile < 1 fits the slope on a
    per-block quantile series instead of the sups, which is statistically
    stabler on random-phase data; the norm value always uses the sups."""
    decomp = make_partition(f.grid)
    spec = decomp.rfft(f.values)
    w = f.grid.weight(a) if a else None
    norms = np.empty(decomp.j_max + 2)
    fit_series = np.empty(decomp.j_max + 2) if quantile < 1.0 else None
    buf = np.empty(f.grid.shape)
    for j in decomp.js:
        vals = decomp.irfft(decomp.half_rho(j) * spec, out=buf)
        if w is not None:
            vals *= w
        np.abs(vals, out=vals)
        if mask is not None:
            vals = vals[mask]
        norms[j + 1] = np.max(vals)
        if fit_series is not None:
            fit_series[j + 1] = np.quantile(vals, quantile)
    return report_from_block_norms(
        norms, alpha, a, window, decomp, r, fit_series=fit_series
    )


def two_param_norm(lam: TwoParamField, alpha: float, a: float = 0.0) -> float:
    """sup (|x|_*^a ^ |y|_*^a) |F(x,y)| / |x-y|^alpha over off-diagonal pairs."""
    if alpha <= 0:
        raise ValueError("two-parameter norm needs alpha > 0")
    grid = lam.grid
    x = grid.axis()
    dist = np.abs(x[:, None] - x[None, :])
    w = grid.weight(a).ravel() if a else np.ones(grid.n)
    wmin = np.minimum(w[:, None], w[None, :])
    off = dist > 0
    return float(np.max(wmin[off] * np.abs(lam.values[off]) / dist[off] ** alpha))


def sampled_two_param_norm(
    values_of_pair,
    grid: Grid,
    alpha: float,
    a: float = 0.0,
    pairs: int = 4096,
    seed: int = 0,
) -> float:
    """Two-parameter norm evaluated on a random pair sample; the dense array
    is never materialised, so this is the d=2 evaluation path.

    values_of_pair(idx_x, idx_y) takes tuples of index arrays (one per axis)
    and returns |pairs| values F(x, y).
    """
    if alpha <= 0:
        raise ValueError("two-parameter norm needs alpha > 0")
    rng = np.random.default_rng(seed)
    ix = tuple(rng.integers(0, grid.n, size=pairs) for _ in range(grid.dim))
    iy = tuple(rng.integers(0, grid.n, size=pairs) for _ in range(grid.dim))
    coords = grid.coords()
    dx = np.stack([coords[d][ix] - coords[d][iy] for d in range(grid.dim)])
    dist = np.sqrt((dx**2).sum(axis=0))
    keep = dist > 0
    vals = np.abs(np.asarray(values_of_pair(ix, iy), dtype=float))
    if a:
        w = grid.weight(a)
        wmin = np.minimum(w[ix], w[iy])
    else:
        wmin = 1.0
    out = (wmin * vals)[keep] / dist[keep] ** alpha
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


def d_family_report(
    family: SeparableFamily,
    alpha: float,
    a: float = 0.0,
    window: tuple[int, int] | None = None,
    mask: np.ndarray | None = None,
    kernel: str = "gauss",
    quantile: float = 0.5,
) -> NormReport:
    """D^alpha_a data: per-j sup_x |x|_*^a |<Lambda_x, P_j(x-.)>| plus slope.

    P_j vanishes for j <= 0 under the strict S_j convention, so the fit uses
    j >= 1 only (the default window already does).  kernel="gauss" (default)
    pairs against the Gaussian low-pass window, which scales cleanly on the
    integer frequency lattice; kernel="sharp" uses the partition's own P_j.
    Each term's spectrum is taken once and paired at every j.
    """
    decomp = make_partition(family.grid)
    spectra = [decomp.rfft(u) for _, u in family.terms]
    w = family.grid.weight(a) if a else None
    norms = np.zeros(decomp.j_max + 2)
    fit_series = np.zeros(decomp.j_max + 2)
    for j in range(1, decomp.j_max + 1):
        sym = decomp.half_gauss(j) if kernel == "gauss" else decomp.half_low(j)
        vals = np.zeros(family.grid.shape)
        for (c, _), spec in zip(family.terms, spectra):
            vals += c * decomp.irfft(sym * spec)
        if w is not None:
            vals = w * vals
        vals = np.abs(vals)
        if mask is not None:
            vals = vals[mask]
        norms[j + 1] = np.max(vals)
        fit_series[j + 1] = np.quantile(vals, quantile)
    if window is None:
        lo, hi = default_fit_window(decomp)
        window = (max(lo, 1), hi)
    return report_from_block_norms(norms, alpha, a, window, decomp, fit_series=fit_series)


def two_point_slope(
    values_by_sep: list[tuple[float, float]],
) -> tuple[float | None, float | None]:
    """Fit sup-values against separations: |F| ~ h^alpha gives slope alpha."""
    pts = [(h, v) for h, v in values_by_sep if v > ZERO_FLOOR]
    if len(pts) < 2:
        return None, None
    hs = np.log2([h for h, _ in pts])
    vs = np.log2([v for _, v in pts])
    coeffs = np.polyfit(hs, vs, 1)
    return float(coeffs[0]), float(coeffs[1])


def dyadic_separations(grid: Grid, count: int = 5) -> list[int]:
    """Grid-step offsets 1, 2, 4, ... used for two-point slope checks."""
    out = []
    s = 1
    while len(out) < count and s <= grid.n // 8:
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


def synthesize(
    alpha: float,
    seed: int,
    grid: Grid,
    scale: float = 1.0,
    window: float = 0.0,
    max_freq_fraction: float = 1.0 / 3.0,
) -> Field:
    """Random-phase field with per-block sup norms scale * 2^{-j alpha}.

    Each block is drawn on the exclusive zone of its annulus (where only
    rho_j is active), so Delta_j of the sum reproduces the block exactly and
    the fitted slope equals alpha up to rounding.  Deterministic under seed.

    Content is capped at max_freq_fraction of the lattice Nyquist radius so
    that pointwise products of a few synthesized fields do not alias around
    the Nyquist frequency.  window > 0 multiplies by a smooth collar
    vanishing near the box boundary (relative width `window`).
    """
    decomp = make_partition(grid)
    rng = np.random.default_rng(seed)
    r = grid.freq_radius()
    cap = max_freq_fraction * grid.max_freq_radius()
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
        acc += (scale * 2.0 ** (-j * alpha) / sup) * u
    if window > 0.0:
        acc = acc * boundary_window(grid, window)
    return Field(grid, acc)
