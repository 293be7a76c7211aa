"""Dyadic decomposition, Fourier multipliers, and block operators."""
import numpy as np
import pytest

from regpara.blocks import (
    LowShellError,
    derivative,
    fourier_multiplier,
    j_operator,
    low_pass,
    lp_block,
    make_partition,
)
from regpara.grid import Field, Grid


@pytest.fixture(scope="module")
def decomp(grid256):
    return make_partition(grid256)


@pytest.fixture(scope="module")
def rand_field(grid256):
    rng = np.random.default_rng(0)
    return Field(grid256, rng.standard_normal(grid256.shape))


class TestPartition:
    def test_sums_to_one_on_every_lattice_point(self, decomp):
        total = decomp.multipliers.sum(axis=0)
        assert np.max(np.abs(total - 1.0)) < 1e-15

    def test_annulus_disjointness(self, decomp):
        for i in range(0, decomp.j_max + 1):
            for j in range(i + 2, decomp.j_max + 1):
                assert np.max(np.abs(decomp.rho(i) * decomp.rho(j))) == 0.0

    def test_scaling_between_annuli(self, grid256, decomp):
        # rho_j(xi) = rho_1(2^{-(j-1)} xi) on shared lattice points
        r = decomp.full(decomp.radius)
        for j in range(2, decomp.j_max - 1):
            idx = np.argmin(np.abs(r - 2.0 ** (j - 1) * 3.0))
            lo = decomp.rho(1)
            hi = decomp.rho(j)
            # compare at exactly scalable radii (powers of two)
            xi = 2.0 ** (j - 1) * 3.0
            i_hi = int(round(xi))
            i_lo = int(round(3.0))
            if i_hi <= grid256.n // 2:
                assert hi[i_hi] == pytest.approx(lo[i_lo], abs=1e-12)

    @pytest.mark.parametrize("dim, n, box", [(1, 512, np.pi), (1, 64, 2.0), (2, 64, np.pi),
                                             (2, 128, 5.0)])
    def test_full_radius_is_the_lattice_radius(self, dim, n, box):
        """The plan's radius on the full lattice is |xi| over numpy's FFT
        frequencies, bit for bit."""
        grid = Grid(dim, n, box)
        plan = make_partition(grid)
        f = np.fft.fftfreq(n, d=1.0 / n) * grid.freq_step
        axes = np.meshgrid(*([f] * dim), indexing="ij")
        want = np.sqrt(sum(a**2 for a in axes))
        got = plan.full(plan.radius)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    def test_expected_depth_for_default_grid(self, decomp):
        assert decomp.j_max == 7

    def test_too_small_grid_raises(self):
        with pytest.raises(ValueError):
            make_partition(Grid(1, 4, np.pi))

    def test_block_sum_reproduces_field(self, decomp, rand_field):
        total = sum(lp_block(decomp, j, rand_field).values for j in decomp.js)
        assert np.max(np.abs(total - rand_field.values)) < 1e-12 * rand_field.sup()


class TestLowPass:
    def test_strict_convention_vanishes_below_one(self, decomp, rand_field):
        assert low_pass(decomp, 0, rand_field).sup() == 0.0
        assert low_pass(decomp, -1, rand_field).sup() == 0.0

    def test_matches_block_sum(self, decomp, rand_field):
        for j in (1, 3, 5):
            want = sum(
                lp_block(decomp, i, rand_field).values for i in range(-1, j - 1)
            )
            got = low_pass(decomp, j, rand_field).values
            assert np.max(np.abs(got - want)) < 1e-12 * rand_field.sup()

    def test_constants_pass_through(self, decomp, grid256):
        c = Field.constant(grid256, 3.5)
        assert lp_block(decomp, -1, c).values == pytest.approx(3.5)
        for j in range(0, decomp.j_max + 1):
            assert lp_block(decomp, j, c).sup() < 1e-13
        assert low_pass(decomp, 2, c).values == pytest.approx(3.5)


class TestMultipliers:
    def test_zero_order_is_identity(self, rand_field):
        assert fourier_multiplier(0, rand_field) is rand_field

    def test_single_mode_scaling(self, grid256):
        x = grid256.axis()
        for xi0, m in ((4.0, 2), (8.0, 3)):
            f = Field(grid256, np.cos(xi0 * x))
            got = fourier_multiplier(m, f)
            assert np.max(np.abs(got.values - xi0**m * f.values)) < 1e-9 * xi0**m

    def test_two_sided_inverse_on_annulus_blocks(self, decomp, rand_field):
        for j in (2, 4, 6):
            b = lp_block(decomp, j, rand_field)
            for m in (1, 2):
                rt = fourier_multiplier(-m, fourier_multiplier(m, b))
                assert np.max(np.abs(rt.values - b.values)) < 1e-12 * max(b.sup(), 1e-30)
                rt2 = fourier_multiplier(m, fourier_multiplier(-m, b))
                assert np.max(np.abs(rt2.values - b.values)) < 1e-12 * max(b.sup(), 1e-30)

    def test_low_shell_content_is_rejected(self, grid256):
        f = Field.constant(grid256, 1.0)
        with pytest.raises(LowShellError) as err:
            fourier_multiplier(-1, f)
        assert "shell" in str(err.value)

    def test_preimage_tag_set_for_positive_order(self, rand_field):
        out = fourier_multiplier(2, rand_field)
        assert out.preimage is rand_field


class TestDerivative:
    def test_single_mode(self, grid256):
        x = grid256.axis()
        f = Field(grid256, np.sin(3.0 * x))
        got = derivative(f, (1,))
        assert np.max(np.abs(got.values - 3.0 * np.cos(3.0 * x))) < 1e-9

    def test_composition(self, grid256, rand_field):
        decomp = make_partition(grid256)
        b = lp_block(decomp, 3, rand_field)
        twice = derivative(derivative(b, (1,)), (1,))
        assert np.max(np.abs(twice.values - derivative(b, (2,)).values)) < 1e-9


class TestJOperator:
    def test_reduces_to_block_at_zero_orders(self, decomp, rand_field):
        for j in (0, 3):
            got = j_operator(decomp, j, (0,), 0, rand_field)
            want = lp_block(decomp, j, rand_field)
            assert np.array_equal(got.values, want.values)

    def test_single_mode_symbol(self, grid256, decomp):
        xi0 = 12.0
        x = grid256.axis()
        f = Field(grid256, np.cos(xi0 * x))
        j = 3  # annulus [4/3, 3] * 8 contains 12
        got = j_operator(decomp, j, (1,), 2, f)
        rho = decomp.rho(j)
        weight = rho[int(xi0)] * xi0 ** (1 - 2)
        want = -weight * np.sin(xi0 * x)
        assert np.max(np.abs(got.values - want)) < 1e-9

    def test_block_minus_one_needs_preimage(self, decomp, rand_field):
        with pytest.raises(ValueError):
            j_operator(decomp, -1, (0,), 2, rand_field)
        tagged = fourier_multiplier(2, rand_field)
        got = j_operator(decomp, -1, (1,), 2, tagged)
        want = derivative(lp_block(decomp, -1, rand_field), (1,))
        assert np.max(np.abs(got.values - want.values)) < 1e-10

    def test_telescoping_to_full_derivative(self, decomp, rand_field):
        # sum_j J_j^{k,m}(|grad|^m xi) = d^k xi
        m, k = 2, (1,)
        zeta = fourier_multiplier(m, rand_field)
        acc = np.zeros(rand_field.grid.shape)
        for j in decomp.js:
            acc += j_operator(decomp, j, k, m, zeta).values
        want = derivative(rand_field, k).values
        assert np.max(np.abs(acc - want)) < 1e-8 * max(np.max(np.abs(want)), 1.0)


class TestTwoDimensions:
    def test_partition_and_products(self):
        grid = Grid(2, 64, np.pi)
        decomp = make_partition(grid)
        assert np.max(np.abs(decomp.multipliers.sum(axis=0) - 1.0)) < 1e-15
        rng = np.random.default_rng(0)
        f = Field(grid, rng.standard_normal(grid.shape))
        total = sum(lp_block(decomp, j, f).values for j in decomp.js)
        assert np.max(np.abs(total - f.values)) < 1e-12 * f.sup()

    def test_synthesis_and_derivatives(self):
        from regpara.norms import holder_norm, synthesize

        grid = Grid(2, 64, np.pi)
        u = synthesize(0.5, 3, grid)
        rep = holder_norm(u, 0.5)
        assert rep.slope == pytest.approx(0.5, abs=0.05)
        mixed = derivative(u, (1, 1))
        assert np.all(np.isfinite(mixed.values))
