"""Paraproducts, resonant products, two-parameter versions, commutator."""
import numpy as np
import pytest

from regpara.blocks import lp_block, make_partition
from regpara.grid import Field, Grid, TwoParamField
from regpara.norms import holder_norm, log_scale_fit, synthesize


def _slope_up_to(rep, top):
    """Regularity fitted on rep's block sups over j = 2..top only."""
    slope, _, _ = log_scale_fit(range(-1, len(rep.block_norms) - 1), rep.block_norms, (2, top))
    return None if slope is None else -slope
from regpara.paraproducts import (
    commutator,
    modified_paraproduct,
    paraproduct,
    resonant,
    smooth_part,
    two_param_block,
    two_param_modified,
    two_param_paraproduct,
)


@pytest.fixture(scope="module")
def decomp(grid256):
    return make_partition(grid256)


@pytest.fixture(scope="module")
def pair(grid256):
    rng = np.random.default_rng(1)
    f = Field(grid256, rng.standard_normal(grid256.shape))
    g = Field(grid256, rng.standard_normal(grid256.shape))
    return f, g


class TestBony:
    def test_exact_decomposition(self, decomp, pair):
        f, g = pair
        total = (
            paraproduct(decomp, f, g)
            + paraproduct(decomp, g, f)
            + resonant(decomp, f, g)
        )
        err = np.max(np.abs(total.values - (f * g).values))
        assert err < 1e-12 * f.sup() * g.sup()

    def test_resonant_symmetry(self, decomp, pair):
        f, g = pair
        a = resonant(decomp, f, g)
        b = resonant(decomp, g, f)
        assert np.max(np.abs(a.values - b.values)) < 1e-13 * f.sup() * g.sup()

    def test_constant_high_slot_is_annihilated(self, decomp, pair, grid256):
        f, _ = pair
        c = Field.constant(grid256, 2.0)
        assert paraproduct(decomp, f, c).sup() < 1e-13 * f.sup()

    def test_smooth_part_identity(self, decomp, pair, grid256):
        _, g = pair
        one = Field.constant(grid256, 1.0)
        lhs = smooth_part(decomp, g)
        rhs = g - paraproduct(decomp, one, g)
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12 * g.sup()
        want = lp_block(decomp, -1, g) + lp_block(decomp, 0, g)
        assert np.max(np.abs(lhs.values - want.values)) < 1e-12 * g.sup()


class TestModified:
    def test_order_zero_is_bitwise_plain(self, decomp, pair):
        f, g = pair
        assert np.array_equal(
            modified_paraproduct(decomp, 0, f, g).values,
            paraproduct(decomp, f, g).values,
        )

    def test_zero_input(self, decomp, pair, grid256):
        f, _ = pair
        z = Field.zero(grid256)
        assert modified_paraproduct(decomp, 3, f, z).sup() == 0.0

    def test_agrees_with_intertwined_form_on_annulus_input(self, decomp, pair, grid256):
        # P^m_f g = |grad|^m P_f |grad|^{-m} g when g has annulus spectrum
        from regpara.blocks import fourier_multiplier

        f, g0 = pair
        g = lp_block(decomp, 4, g0)
        m = 2
        direct = modified_paraproduct(decomp, m, f, g)
        inter = fourier_multiplier(
            m, paraproduct(decomp, f, fourier_multiplier(-m, g))
        )
        scale = max(direct.sup(), 1e-30)
        assert np.max(np.abs(direct.values - inter.values)) < 1e-10 * scale

    def test_empirical_continuity_preserves_high_regularity(self, grid512):
        decomp = make_partition(grid512)
        f = synthesize(0.7, 3, grid512)
        g = synthesize(0.45, 4, grid512)
        for m in (0, 2):
            out = modified_paraproduct(decomp, m, f, g)
            num = holder_norm(out, 0.45).norm
            den = holder_norm(f, 0.7).norm * holder_norm(g, 0.45).norm
            assert num <= 6.0 * den


class TestTwoParameter:
    def test_separable_reduces_to_paraproduct(self, decomp, pair):
        f, g = pair
        lam = TwoParamField.separable(f, g)
        got = two_param_paraproduct(decomp, lam)
        want = paraproduct(decomp, f, g)
        assert np.max(np.abs(got.values - want.values)) < 1e-10 * max(want.sup(), 1e-30)

    def test_modified_separable_consistency(self, decomp, pair):
        f, g = pair
        lam = TwoParamField.separable(f, g)
        for m in (1, 3):
            got = two_param_modified(decomp, m, lam)
            want = modified_paraproduct(decomp, m, f, g)
            assert np.max(np.abs(got.values - want.values)) < 1e-10 * max(want.sup(), 1e-30)

    def test_constant_kernel_is_annihilated(self, decomp, grid256):
        lam = TwoParamField(grid256, np.ones((grid256.n, grid256.n)))
        assert two_param_paraproduct(decomp, lam).sup() < 1e-12

    def test_envelope_insertion_is_neutral(self, decomp, pair):
        f, g = pair
        lam = TwoParamField.separable(f, g)
        for j in (2, 4):
            plain = two_param_block(decomp, j, lam, envelope=False)
            enveloped = two_param_block(decomp, j, lam, envelope=True)
            scale = max(plain.sup(), 1e-30)
            assert np.max(np.abs(plain.values - enveloped.values)) < 1e-10 * scale

    def test_brute_force_kernel_oracle(self, grid256, decomp):
        # oracle: evaluate Q_j Lambda at a few points by direct kernel sums
        rng = np.random.default_rng(5)
        lam_vals = rng.standard_normal((grid256.n, grid256.n))
        lam = TwoParamField(grid256, lam_vals)
        j = 3
        got = two_param_block(decomp, j, lam)
        p_ker = np.fft.ifft(decomp.low_symbol(j)).real
        q_ker = np.fft.ifft(decomp.rho(j)).real
        for xi in (10, 100, 200):
            val = 0.0
            for yi in range(grid256.n):
                row = p_ker[(xi - yi) % grid256.n]
                if abs(row) < 1e-18:
                    continue
                col = q_ker[(xi - np.arange(grid256.n)) % grid256.n]
                val += row * float(col @ lam_vals[yi])
            assert got.values[xi] == pytest.approx(val, rel=1e-8, abs=1e-10)

    def test_dense_requires_dim_one(self):
        with pytest.raises(ValueError):
            TwoParamField(Grid(2, 16, np.pi), np.ones((16, 16)))


class TestCommutator:
    def test_unit_low_slot_collapses_to_smooth_part(self, decomp, pair, grid256):
        _, g = pair
        h = Field(grid256, np.random.default_rng(9).standard_normal(grid256.shape))
        one = Field.constant(grid256, 1.0)
        got = commutator(decomp, one, g, h)
        want = -1.0 * smooth_part(decomp, paraproduct(decomp, g, h))
        assert np.max(np.abs(got.values - want.values)) < 1e-12 * g.sup() * h.sup()

    def test_unit_middle_slot(self, decomp, pair, grid256):
        f, h = pair
        one = Field.constant(grid256, 1.0)
        got = commutator(decomp, f, one, h)
        want = -1.0 * paraproduct(decomp, f, smooth_part(decomp, h))
        assert np.max(np.abs(got.values - want.values)) < 1e-12 * f.sup() * h.sup()

    def test_regularity_gain(self, grid512):
        # inputs in C^a x C^b x C^c gain to a+b+c despite c < 0
        decomp = make_partition(grid512)
        f = synthesize(0.6, 11, grid512)
        g = synthesize(0.7, 12, grid512)
        h = synthesize(-0.4, 13, grid512)
        out = commutator(decomp, f, g, h)
        rep = holder_norm(out, 0.9)
        assert rep.slope is not None and rep.slope >= (0.6 + 0.7 - 0.4) - 0.3


class TestContinuityEmpirics:
    """Desk-scale continuity: the three bilinear maps are bounded between the
    block-sup norms at their continuum exponents.  Slope fits of single draws
    carry a low-pass saturation bias, so boundedness of the operator-norm
    ratio over several seeds is the stable empirical rendition."""

    def test_paraproduct_operator_norm(self, grid512):
        decomp = make_partition(grid512)
        for a, b in [(0.7, 0.45), (0.5, 0.75), (0.5, -0.25), (-0.3, 0.6), (1.4, 0.6)]:
            for seed in (1, 7, 21):
                f = synthesize(a, seed, grid512)
                g = synthesize(b, seed + 100, grid512)
                target = min(a, 0.0) + b
                num = holder_norm(paraproduct(decomp, f, g), target).norm
                den = holder_norm(f, a).norm * holder_norm(g, b).norm
                assert num <= 6.0 * den, (a, b, seed, num / den)

    def test_resonant_operator_norm(self, grid512):
        decomp = make_partition(grid512)
        for a, b in [(0.5, 0.75), (0.9, -0.25), (0.7, 0.45), (1.4, -0.5)]:
            for seed in (2, 8, 22):
                f = synthesize(a, seed, grid512)
                g = synthesize(b, seed + 100, grid512)
                num = holder_norm(resonant(decomp, f, g), a + b).norm
                den = holder_norm(f, a).norm * holder_norm(g, b).norm
                assert num <= 6.0 * den, (a, b, seed, num / den)

    def test_resonant_slope_gains_sum(self, grid512):
        from regpara.norms import synthesis_top

        decomp = make_partition(grid512)
        top = synthesis_top(grid512)
        for a, b in [(0.5, 0.75), (0.9, -0.25)]:
            f = synthesize(a, 31, grid512)
            g = synthesize(b, 32, grid512)
            slope = _slope_up_to(holder_norm(resonant(decomp, f, g), a + b), top)
            assert slope is not None and slope >= (a + b) - 0.25, (a, b, slope)

    def test_product_takes_minimum(self, grid512):
        # fit only over blocks the anti-aliased synthesis populates: above
        # them the paraproduct parts vanish identically and the product has
        # resonance-only (steeper) content
        from regpara.norms import synthesis_top

        top = synthesis_top(grid512)
        for a, b in [(0.5, 0.75), (0.45, 0.9), (-0.3, 0.6)]:
            f = synthesize(a, 41, grid512)
            g = synthesize(b, 42, grid512)
            slope = _slope_up_to(holder_norm(f * g, min(a, b)), top)
            assert slope is not None
            assert abs(slope - min(a, b)) <= 0.2, (a, b, slope)
            num = holder_norm(f * g, min(a, b)).norm
            den = holder_norm(f, a).norm * holder_norm(g, b).norm
            assert num <= 6.0 * den


class TestTwoParamDecayTransfer:
    def test_block_decay_bounds_the_output_norm(self, grid256):
        # if |Q_j Lambda| <~ 2^{-j a} then **P** Lambda lies in C^a with
        # comparable norm: operator-norm transfer from the per-block data
        decomp = make_partition(grid256)
        rng = np.random.default_rng(3)
        u = Field(grid256, rng.standard_normal(grid256.shape))
        v = Field(grid256, rng.standard_normal(grid256.shape))
        w = Field(grid256, rng.standard_normal(grid256.shape))
        lam = TwoParamField(
            grid256,
            np.outer(u.values, v.values) + 0.5 * np.outer(w.values, u.values),
        )
        alpha = 0.6
        qnorms = []
        for j in range(1, decomp.j_max + 1):
            qnorms.append(
                (j, two_param_block(decomp, j, lam).sup())
            )
        data = max(2.0 ** (j * alpha) * q for j, q in qnorms)
        out = two_param_paraproduct(decomp, lam)
        rep = holder_norm(out, alpha)
        assert rep.norm <= 4.0 * data
