"""Norm estimation, slope fitting, synthetic fields, weighted kernels."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regpara.blocks import make_partition
from regpara.grid import Field, Grid, TwoParamField
from regpara.norms import (
    ZERO_FLOOR,
    NormReport,
    SeparableFamily,
    d_family_report,
    dyadic_separations,
    holder_norm,
    interior_mask,
    log_scale_fit,
    scale_stats,
    synthesize,
    two_param_norm,
)


class TestSynthesize:
    @pytest.mark.parametrize("alpha", [-0.6, 0.3, 0.9, 1.5])
    def test_calibration(self, alpha):
        grid = Grid(1, 1024, np.pi)
        rep = holder_norm(synthesize(alpha, 42, grid), alpha)
        assert rep.slope == pytest.approx(alpha, abs=0.05)

    def test_deterministic_under_seed(self, grid256):
        a = synthesize(0.5, 9, grid256)
        b = synthesize(0.5, 9, grid256)
        assert np.array_equal(a.values, b.values)
        c = synthesize(0.5, 10, grid256)
        assert not np.array_equal(a.values, c.values)

    def test_block_sups_match_prescription(self, grid256):
        decomp = make_partition(grid256)
        u = synthesize(0.75, 3, grid256)
        rep = holder_norm(u, 0.75)
        for j in rep.fit_js:
            assert rep.block_norms[j + 1] == pytest.approx(2.0 ** (-j * 0.75), rel=1e-9)


class TestHolderNorm:
    def test_constant_field(self, grid256):
        rep = holder_norm(Field.constant(grid256, 2.0), -0.5)
        assert rep.block_norms[0] == pytest.approx(2.0)
        assert np.all(rep.block_norms[1:] < 1e-12)
        assert rep.norm == pytest.approx(2.0 * 2.0**0.5)  # j=-1 carries 2^{-alpha}

    def test_weighted_norm_uses_weight(self, grid256):
        u = Field.constant(grid256, 1.0)
        rep = holder_norm(u, 0.0, a=2.0)
        want = float(np.max(grid256.weight(2.0)))
        assert rep.block_norms[0] == pytest.approx(want)

    def test_norm_value_definition(self, grid256):
        u = synthesize(0.5, 5, grid256)
        rep = holder_norm(u, 0.5)
        js = np.arange(-1, len(rep.block_norms) - 1)
        assert rep.norm == pytest.approx(float(np.max(2.0 ** (0.5 * js) * rep.block_norms)))

    def test_report_lines_roundtrip_values(self, grid256):
        rep = holder_norm(synthesize(0.5, 5, grid256), 0.5)
        text = str(rep)
        assert "slope" in text and "window" in text


class TestTwoParamNorm:
    def test_separable_difference_quotient(self, grid256):
        u = synthesize(0.5, 8, grid256)
        lam = TwoParamField(
            grid256, u.values[:, None] - u.values[None, :]
        )
        val = two_param_norm(lam, 0.5)
        # oracle: direct sup over pairs
        x = grid256.axis()
        dist = np.abs(x[:, None] - x[None, :])
        off = dist > 0
        want = np.max(np.abs(lam.values[off]) / dist[off] ** 0.5)
        assert val == pytest.approx(want)

    def test_needs_positive_exponent(self, grid256):
        lam = TwoParamField(grid256, np.ones((grid256.n, grid256.n)))
        with pytest.raises(ValueError):
            two_param_norm(lam, -0.5)


class TestDFamily:
    def test_exact_power_profile_oracle(self, grid256):
        # family Lambda_x(y) = |y - x|^alpha (periodic distance) pairs against
        # the window at exactly 2^{-j alpha}; encode it densely through
        # indicator coefficients on circulant shifts
        alpha = 1.25
        x = grid256.axis()
        dist = np.abs(x - x[0])
        dist = np.minimum(dist, 2 * grid256.box - dist)
        w = dist**alpha
        eye = np.eye(grid256.n)
        fam = SeparableFamily(
            grid256,
            [(eye[:, i], np.roll(w, i)) for i in range(grid256.n)],
        )
        rep = d_family_report(fam, alpha)
        assert rep.slope is not None
        assert rep.slope == pytest.approx(alpha, abs=0.1)

    def test_product_of_holder_increments(self, grid256):
        u = synthesize(0.875, 5, grid256).values
        v = synthesize(0.875, 6, grid256).values
        ones = np.ones(grid256.shape)
        fam = SeparableFamily(
            grid256, [(ones, u * v), (-v, u), (-u, v), (u * v, ones)]
        )
        rep = d_family_report(fam, 1.75, mask=interior_mask(grid256))
        assert rep.slope is not None and rep.slope >= 1.75 - 0.2

    def test_diagonal_evaluation(self, grid256):
        u = synthesize(0.5, 7, grid256).values
        fam = SeparableFamily(grid256, [(u, u)])
        assert np.array_equal(fam.diagonal().values, u * u)


class TestSlopeFitting:
    def test_two_point_slope_recovers_exponent(self):
        pts = [(2.0**-i, 3.0 * 2.0 ** (-i * 0.8)) for i in range(1, 7)]
        hs, vs = zip(*pts)
        slope, _, _ = log_scale_fit(np.log2(hs), vs)
        assert slope == pytest.approx(0.8, abs=1e-9)

    def test_degenerate_input(self):
        slope, intercept, _ = log_scale_fit(np.log2([0.5]), [0.0])
        assert slope is None and intercept is None

    def test_points_at_the_relative_floor_are_dropped(self):
        series = [1.0, 2.0**-1, 1e-13, 2.0**-3, 2.0**-4]
        slope, _, used = log_scale_fit(range(5), series)
        assert used == [0, 1, 3, 4]
        assert slope == pytest.approx(-1.0, abs=1e-12)
        assert log_scale_fit(range(5), series, (1, 3))[2] == [1, 3]
        # the floor is taken over the whole series, not over the window
        slope, intercept, used = log_scale_fit(range(5), [1.0, 1e-14, 2e-14, 4e-14, 1.0], (1, 3))
        assert slope is None and intercept is None and used == []

    def test_matches_the_former_block_and_two_point_fits(self):
        rng = np.random.default_rng(0)
        j_max = 12
        block = 2.0 ** -np.arange(-1.0, j_max + 1) * rng.uniform(0.5, 2.0, j_max + 2)
        block[5] = 0.0
        # block fit: j in [2, J-2], floor relative to the whole series, slope negated
        floor = max(ZERO_FLOOR, 1e-13 * float(np.max(block)))
        sel = [j for j in range(2, j_max - 1) if block[j + 1] > floor]
        c = np.polyfit(np.array(sel, dtype=float), np.log2(block[np.array(sel) + 1]), 1)
        slope, intercept, used = log_scale_fit(range(-1, j_max + 1), block, (2, j_max - 2))
        assert (-slope, intercept, used) == (-float(c[0]), float(c[1]), sel)
        rep = NormReport.from_blocks(block, block, 0.5)
        assert (rep.slope, rep.intercept, rep.fit_js) == (-float(c[0]), float(c[1]), sel)
        # two-point fit: log2 value against log2 separation, absolute floor only
        pts = [(s * 0.0245, float(v)) for s, v in zip([1, 2, 4, 8, 16], rng.uniform(0.1, 1.0, 5))]
        kept = [(h, v) for h, v in pts if v > ZERO_FLOOR]
        c = np.polyfit(np.log2([h for h, _ in kept]), np.log2([v for _, v in kept]), 1)
        hs, vs = zip(*pts)
        slope, intercept, _ = log_scale_fit(np.log2(hs), vs)
        assert (slope, intercept) == (float(c[0]), float(c[1]))

    def test_dyadic_separations_are_dyadic(self, grid256):
        seps = dyadic_separations(grid256)
        assert seps == [1, 2, 4, 8, 16]


class TestWeightedScaling:
    def test_kernel_moment_bound(self, grid256):
        # integral |P_i(x-y)| |x-y|^alpha |y|_*^{-a} dy <= C 2^{-i alpha} |x|_*^{-a}
        decomp = make_partition(grid256)
        alpha, a = 0.75, 1.0
        x = grid256.axis()
        weight = grid256.weight(-a)[0] if False else (1.0 + np.abs(x)) ** (-a)
        ratios = []
        for i in (3, 4, 5):
            ker = np.fft.ifft(decomp.low_symbol(i)).real * grid256.n / (2 * grid256.box)
            for xi in (0, 64, 128, 192):
                dist = np.abs(x - x[xi])
                dist = np.minimum(dist, 2 * grid256.box - dist)
                integral = np.sum(
                    np.abs(np.roll(ker, xi)) * dist**alpha * weight
                ) * grid256.step
                bound_unit = 2.0 ** (-i * alpha) * (1.0 + np.abs(x[xi])) ** (-a)
                ratios.append(integral / bound_unit)
        ratios = np.array(ratios)
        assert np.all(ratios < 10.0 * np.median(ratios))
        assert np.all(ratios > 0)


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


class TestScaleStatsMedian:
    """scale_stats's median is np.quantile(|x|, 0.5) bit for bit, from one
    selection, and its sup is the max of |x|."""

    @given(n=st.integers(1, 40000), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["normal", "ties", "zeros", "masked"]))
    @settings(max_examples=150, deadline=None)
    def test_median_is_numpy_quantile(self, n, seed, kind):
        rng = np.random.default_rng(seed)
        mask = None
        if kind == "ties":
            x = rng.integers(-3, 4, n).astype(float)
        elif kind == "zeros":
            x = rng.standard_normal(n) * (rng.random(n) < 0.5)
        elif kind == "masked":
            x = rng.standard_normal((2, n))
            mask = rng.random((2, n)) < 0.5
            mask.flat[rng.integers(2 * n)] = True
        else:
            x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300)
        want = np.abs(x if mask is None else x[mask])
        sup, med = scale_stats(x.copy(), mask=mask)
        assert _bits(med) == _bits(np.quantile(want, 0.5))
        assert _bits(sup) == _bits(np.max(want))
        assert scale_stats(x.copy(), mask=mask, sup=False) == (None, med)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10])
    def test_odd_and_even_counts_and_infinities(self, n):
        rng = np.random.default_rng(n)
        for x in (np.arange(n, dtype=float)[::-1], np.full(n, 2.5), rng.standard_normal(n)):
            for k in range(n + 1):
                y = x.copy()
                y[:k] = np.inf     # numpy reads NaN once an infinity enters the interpolation
                with np.errstate(invalid="ignore"):
                    want = np.quantile(np.abs(y), 0.5)
                    got = scale_stats(y, sup=False)[1]
                assert _bits(got) == _bits(want) or np.isnan(got) and np.isnan(want)

    def test_nan_sample_gives_nan(self):
        x = np.linspace(-1.0, 1.0, 11)
        x[3] = np.nan
        sup, med = scale_stats(x.copy())
        assert np.isnan(sup) and np.isnan(med)
        assert np.isnan(scale_stats(x[:10].copy(), sup=False)[1])

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            scale_stats(np.array([]))
        with pytest.raises(ValueError):
            scale_stats(np.ones(4), mask=np.zeros(4, bool), sup=False)
