"""The half-spectrum layer against full-lattice complex-FFT references.

Every reference below is the textbook formula on the full frequency lattice:
np.fft.fftn / ifftn(...).real with symbols built here from `chi` and the
lattice radius, independently of the plan.  Inputs are white noise, so every
lattice frequency, the Nyquist modes included, carries mass.
"""
import numpy as np
import pytest

from regpara import blocks
from regpara.blocks import chi, derivative, fourier_multiplier, make_partition
from regpara.grid import Field, Grid
from regpara.norms import SeparableFamily, d_family_report, holder_norm
from regpara.paraproducts import modified_paraproduct, paraproduct, resonant

REL = 1e-12


def _lattice(grid):
    f = np.fft.fftfreq(grid.n, d=1.0 / grid.n) * grid.freq_step
    axes = (f,) if grid.dim == 1 else tuple(np.meshgrid(f, f, indexing="ij"))
    return axes, np.sqrt(sum(a**2 for a in axes))


class Reference:
    """Full-lattice symbols and operators, written out from their definitions."""

    def __init__(self, grid):
        self.grid = grid
        self.axes, self.r = _lattice(grid)
        self.J = make_partition(grid).j_max
        ladder = [chi(self.r / 2.0**k) for k in range(self.J + 2)]
        self.rho = {-1: ladder[0]}
        self.rho.update({j: ladder[j + 1] - ladder[j] for j in range(self.J + 1)})
        self.low = {j: ladder[j - 1] for j in range(1, self.J + 1)}

    def mult(self, sym, u):
        return np.fft.ifftn(sym * np.fft.fftn(u)).real

    def power(self, m):
        out = np.zeros_like(self.r)
        np.power(self.r, float(m), out=out, where=self.r > 0)
        return out

    def modified(self, m, f, g):
        fspec, gspec = np.fft.fftn(f), np.fft.fftn(g)
        acc = np.zeros(self.grid.shape)
        for j in range(1, self.J + 1):
            s = np.fft.ifftn(self.low[j] * fspec).real
            block_spec = self.rho[j] * gspec
            if m:
                block_spec = block_spec * self.power(-m)
            term = s * np.fft.ifftn(block_spec).real
            if m:
                term = self.mult(self.power(m), term)
            acc += term
        return acc

    def resonant(self, f, g):
        fb = {j: self.mult(self.rho[j], f) for j in self.rho}
        gb = {j: self.mult(self.rho[j], g) for j in self.rho}
        return sum(fb[i] * gb[j] for i in fb for j in (i - 1, i, i + 1) if j in gb)

    def derivative(self, f, k):
        spec = np.fft.fftn(f)
        for freq, ki in zip(self.axes, k):
            spec = spec * (1j * freq) ** ki
        return np.fft.ifftn(spec).real

    def family_series(self, terms, kernel):
        out = np.zeros(self.J + 2)
        for j in range(1, self.J + 1):
            sym = np.exp(-((self.r / 2.0**j) ** 2)) if kernel == "gauss" else self.low[j]
            vals = sum(c * self.mult(sym, u) for c, u in terms)
            out[j + 1] = np.max(np.abs(vals))
        return out


def _close(got, want):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert float(np.max(np.abs(np.asarray(got) - want))) <= REL * scale


GRIDS = [Grid(1, 256, np.pi), Grid(2, 64, np.pi)]


@pytest.fixture(scope="module", params=GRIDS, ids=["d1-n256", "d2-n64"])
def case(request):
    grid = request.param
    rng = np.random.default_rng(17)
    noise = [Field(grid, rng.standard_normal(grid.shape)) for _ in range(3)]
    return grid, Reference(grid), noise


def test_full_lattice_symbols_are_bit_identical(case):
    grid, ref, _ = case
    decomp = make_partition(grid)
    want = np.stack([ref.rho[j] for j in decomp.js])
    assert np.array_equal(decomp.multipliers, want)
    for j in range(1, decomp.j_max + 1):
        assert np.array_equal(decomp.low_symbol(j), ref.low[j])


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_modified_paraproduct(case, m):
    grid, ref, (f, g, _) = case
    decomp = make_partition(grid)
    _close(modified_paraproduct(decomp, m, f, g).values, ref.modified(m, f.values, g.values))
    if m == 0:
        _close(paraproduct(decomp, f, g).values, ref.modified(0, f.values, g.values))


def test_resonant(case):
    grid, ref, (f, g, _) = case
    _close(resonant(make_partition(grid), f, g).values, ref.resonant(f.values, g.values))


@pytest.mark.parametrize("a", [0.0, 1.0])
def test_holder_block_norms(case, a):
    grid, ref, (f, _, _) = case
    w = grid.weight(a)
    want = np.array([np.max(np.abs(w * ref.mult(ref.rho[j], f.values))) for j in sorted(ref.rho)])
    got = holder_norm(f, 0.5, a=a).block_norms
    assert np.max(np.abs(got - want)) <= REL * np.max(want)


@pytest.mark.parametrize("kernel", ["gauss", "sharp"])
def test_d_family_series(case, kernel):
    grid, ref, (f, g, h) = case
    terms = [(f.values, g.values), (np.ones(grid.shape), h.values), (-g.values, f.values)]
    got = d_family_report(SeparableFamily(grid, terms), 0.5, kernel=kernel).block_norms
    want = ref.family_series(terms, kernel)
    assert np.max(np.abs(got - want)) <= REL * np.max(want)


def test_derivative_odd_and_even_orders(case):
    grid, ref, (f, _, _) = case
    ks = [(1,), (2,), (3,)] if grid.dim == 1 else [(1, 0), (0, 1), (1, 1), (2, 1), (0, 2), (3, 0)]
    for k in ks:
        _close(derivative(f, k).values, ref.derivative(f.values, k))


@pytest.mark.parametrize("m", [-2, -1, 1, 2])
def test_fourier_multiplier(case, m):
    grid, ref, (f, _, _) = case
    # negative orders need a field without mass below the block-0 annulus
    u = Field(grid, ref.mult((ref.r >= 2.0).astype(float), f.values))
    _close(fourier_multiplier(m, u).values, ref.mult(ref.power(m), u.values))


def test_symbols_are_cached_per_grid(monkeypatch):
    grid = Grid(1, 256, 2.0)
    rng = np.random.default_rng(3)
    f, g = (Field(grid, rng.standard_normal(grid.shape)) for _ in range(2))
    calls = []

    def counting_chi(r):
        calls.append(1)
        return chi(r)

    monkeypatch.setattr(blocks, "chi", counting_chi)
    decomp = make_partition(grid)
    paraproduct(decomp, f, g)
    first = len(calls)
    paraproduct(decomp, f, g)
    assert first > 0
    assert len(calls) == first
