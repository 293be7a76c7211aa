"""The half-spectrum layer against full-lattice complex-FFT references.

Every reference below is the textbook formula on the full frequency lattice:
np.fft.fftn / ifftn(...).real with symbols built here from `chi` and the
lattice radius, independently of the plan.  Inputs are white noise, so every
lattice frequency, the Nyquist modes included, carries mass.
"""
import os
import platform
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from regpara import blocks, norms, paraproducts
from regpara.blocks import chi, derivative, fourier_multiplier, make_partition
from regpara.grid import Field, Grid
from regpara.norms import (
    SeparableFamily,
    d_family_report,
    holder_norm,
    interior_box,
    interior_mask,
)
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

    def family_series(self, terms, window):
        out = np.zeros(self.J + 2)
        for j in range(1, self.J + 1):
            sym = window(self.r, j)
            vals = sum(c * self.mult(sym, u) for c, u in terms)
            out[j + 1] = np.max(np.abs(vals))
        return out


def _close(got, want):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert float(np.max(np.abs(np.asarray(got) - want))) <= REL * scale


# At box 4 the frequency step is pi/4, so a product bound of 3.75 * 2^j is
# 4.77 * 2^j lattice steps: its sub-grids are twice those of box pi.
GRIDS = [Grid(1, 256, np.pi), Grid(2, 64, np.pi), Grid(1, 256, 4.0)]


@pytest.fixture(scope="module", params=GRIDS, ids=["d1-n256", "d2-n64", "d1-box4"])
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


def _gauss(r, j):
    return np.exp(-((r / 2.0**j) ** 2))


# the Gaussian low-pass window that d_family_report pairs against
@pytest.mark.parametrize("window", [_gauss], ids=["gauss"])
def test_d_family_series(case, window):
    grid, ref, (f, g, h) = case
    terms = [(f.values, g.values), (np.ones(grid.shape), h.values), (-g.values, f.values)]
    got = d_family_report(SeparableFamily(grid, terms), 0.5).block_norms
    want = ref.family_series(terms, window)
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


def test_holder_norm_series_are_bit_identical(case, monkeypatch):
    """The buffered block loop gives exactly the sups of the plain loop:
    Delta_j f transformed, weighted, |.|, masked; the slope is fitted on them."""
    grid, _, (f, _, _) = case
    decomp = make_partition(grid)
    w, mask = grid.weight(1.0), interior_mask(grid)
    spec = decomp.rfft(f.values)
    want_norms = []
    for j in decomp.js:
        vals = np.abs(w * decomp.irfft(decomp.half_rho(j) * spec))[mask]
        want_norms.append(np.max(vals))
    seen = {}
    fit = norms.log_scale_fit

    def spy(xs, series, *args):
        seen["series"] = series
        return fit(xs, series, *args)

    monkeypatch.setattr(norms, "log_scale_fit", spy)
    got = holder_norm(f, 0.5, a=1.0, mask=mask)
    assert np.array_equal(got.block_norms, want_norms)
    assert np.array_equal(seen["series"], want_norms)


def _abs_max(vals, mask):
    """The sup as an abs pass, a masked copy and a max take it."""
    return np.max(np.abs(vals if mask is None else vals[mask]))


@pytest.mark.parametrize("a", [0.0, 1.0])
def test_block_sups_are_those_of_an_abs_pass(case, a):
    """holder_norm takes its sups without an abs pass (block_sup): bit for
    bit those of max |.|, unmasked, under a boolean mask and under a box;
    a zero sup is +0.0, also that of -0.0 values."""
    grid, _, (f, _, _) = case
    decomp = make_partition(grid)
    w = grid.weight(a)
    rng = np.random.default_rng(23)
    masks = [None, interior_mask(grid), (interior_box(grid),) * grid.dim,
             rng.random(grid.shape) < 0.5]
    for mask in masks:
        want = np.zeros(decomp.j_max + 2)
        for j in decomp.live_js:
            want[j + 1] = _abs_max(w * decomp.irfft(decomp.half_rho(j) * f.spectrum), mask)
        got = holder_norm(f, 0.5, a=a, mask=mask).block_norms
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        mixed = rng.standard_normal(grid.shape)
        mixed[::3] = -0.0
        sup = norms.block_sup(mixed, mask)
        assert np.float64(sup).view(np.int64) == _abs_max(mixed, mask).view(np.int64)
        sup = norms.block_sup(np.full(grid.shape, -0.0), mask)
        assert not np.signbit(sup) and f"{sup:.12e}" == "0.000000000000e+00"


# -- sub-grid block products -------------------------------------------------


def _long_double_modified(grid, m, f, g):
    """P^m_f g on the full lattice in long double, block by block with
    |grad|^m applied once to the sum; symbols are the float64 ones."""
    ld = np.longdouble
    ref = Reference(grid)
    r = ref.r.astype(ld)
    power = np.zeros_like(r)
    power[r > 0] = r[r > 0] ** m
    inverse = np.zeros_like(r)
    inverse[r > 0] = r[r > 0] ** -m
    fspec, gspec = np.fft.fft(f.astype(ld)), np.fft.fft(g.astype(ld)) * inverse
    acc = np.zeros(grid.shape, dtype=ld)
    for j in range(1, ref.J + 1):
        acc += np.fft.ifft(ref.low[j].astype(ld) * fspec).real * np.fft.ifft(
            ref.rho[j].astype(ld) * gspec
        ).real
    return np.fft.ifft(power * np.fft.fft(acc)).real


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="long double is no wider than double on this platform",
)
@pytest.mark.parametrize("m, rel", [(0, 1e-14), (1, 1e-14), (2, 1e-14), (3, 1e-12)])
def test_modified_paraproduct_against_long_double(m, rel):
    """Products formed below their band keep real-space rounding above it out
    of the spectrum, so |grad|^m has nothing there to amplify."""
    grid = Grid(1, 4096, np.pi)
    rng = np.random.default_rng(41)
    f, g = (Field(grid, rng.standard_normal(grid.shape)) for _ in range(2))
    want = _long_double_modified(grid, m, f.values, g.values)
    got = modified_paraproduct(make_partition(grid), m, f, g).values
    assert float(np.max(np.abs(got - want)) / np.max(np.abs(want))) <= rel


def _count_subgrid_transforms(monkeypatch, grid):
    """Record every irfftn (irfft on 1-D grids) onto fewer points per axis
    than the grid has."""
    calls = []
    irfftn, irfft = np.fft.irfftn, np.fft.irfft

    def counting(a, s=None, axes=None, norm=None, out=None):
        if s is not None and s[-1] < grid.n:
            calls.append(s)
        return irfftn(a, s=s, axes=axes, norm=norm, out=out)

    def counting_1d(a, n=None, axis=-1, norm=None, out=None):
        if n is not None and n < grid.n:
            calls.append((n,))
        return irfft(a, n=n, axis=axis, norm=norm, out=out)

    monkeypatch.setattr(np.fft, "irfftn", counting)
    monkeypatch.setattr(np.fft, "irfft", counting_1d)
    return calls


@pytest.mark.parametrize("n, subgrids", [(256, True), (64, False)])
def test_subgrid_products_in_2d(monkeypatch, n, subgrids):
    """At 256^2 the low blocks are formed on sub-grids; at 64^2 the 64-point
    minimum keeps every block on the grid itself."""
    grid = Grid(2, n, np.pi)
    ref = Reference(grid)
    rng = np.random.default_rng(43)
    f, g = (Field(grid, rng.standard_normal(grid.shape)) for _ in range(2))
    decomp = make_partition(grid)
    calls = _count_subgrid_transforms(monkeypatch, grid)
    for op, want in [
        (lambda: paraproduct(decomp, f, g), ref.modified(0, f.values, g.values)),
        (lambda: modified_paraproduct(decomp, 2, f, g), ref.modified(2, f.values, g.values)),
        (lambda: resonant(decomp, f, g), ref.resonant(f.values, g.values)),
    ]:
        before = len(calls)
        _close(op().values, want)
        assert (len(calls) > before) == subgrids
    assert np.array_equal(
        paraproduct(decomp, f, g).values, modified_paraproduct(decomp, 0, f, g).values
    )


# -- results, threads and carried spectra -------------------------------------


def _spectral_results(decomp, f, g, h):
    fam = SeparableFamily(decomp.grid, [(f.values, g.values), (np.ones(decomp.grid.shape), h.values)])
    return {
        "P^2": modified_paraproduct(decomp, 2, f, g).values,
        "Pi": resonant(decomp, f, g).values,
        "holder": holder_norm(f, 0.5).block_norms,
        "d-family": d_family_report(fam, 0.5).block_norms,
    }


def test_results_never_alias_the_workspace(case):
    """A result is its own array, unchanged by later calls on the same plan."""
    grid, _, (f, g, h) = case
    decomp = make_partition(grid)
    first = _spectral_results(decomp, f, g, h)
    kept = {name: vals.copy() for name, vals in first.items()}
    _spectral_results(decomp, h, f, g)
    for name, vals in first.items():
        assert np.array_equal(vals, kept[name]), name


THREAD_ROUNDS = 30
THREAD_TIMEOUT_S = 120


def test_threads_share_a_plan():
    """Two threads running the block loops at once on one plan get what the
    same calls return one after the other, bit for bit."""
    grid = Grid(1, 4096, np.pi)
    decomp = make_partition(grid)
    rng = np.random.default_rng(43)
    inputs = [[Field(grid, rng.standard_normal(grid.shape)) for _ in range(3)] for _ in range(2)]
    want = [_spectral_results(decomp, *fields) for fields in inputs]
    start = threading.Barrier(len(inputs), timeout=THREAD_TIMEOUT_S)

    def rounds(fields, expected):
        start.wait()
        wrong = []
        for _ in range(THREAD_ROUNDS):
            got = _spectral_results(decomp, *fields)
            wrong += [name for name in got if not np.array_equal(got[name], expected[name])]
        return wrong

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(inputs)) as pool:
            runs = [pool.submit(rounds, fields, expected) for fields, expected in zip(inputs, want)]
            wrong = [run.result(timeout=THREAD_TIMEOUT_S) for run in runs]
    finally:
        sys.setswitchinterval(interval)
    assert wrong == [[], []]


def test_field_spectrum_is_taken_once(case, monkeypatch):
    grid, _, (f, g, _) = case
    u, v = Field(grid, f.values), Field(grid, g.values)
    rfftn = np.fft.rfftn
    full = []

    def counting(transform):
        def counted(a, *args, **kwargs):
            if np.shape(a) == grid.shape:
                full.append(1)
            return transform(a, *args, **kwargs)
        return counted

    for name in ("rfft", "rfftn"):   # the 1-D transform on 1-D grids
        monkeypatch.setattr(np.fft, name, counting(getattr(np.fft, name)))
    spec = u.spectrum
    assert np.array_equal(spec, rfftn(f.values))
    assert not spec.flags.writeable
    decomp = make_partition(grid)
    paraproduct(decomp, u, v)
    resonant(decomp, v, u)
    holder_norm(u, 0.5)
    derivative(u, (1,) * grid.dim)
    assert u.spectrum is spec
    assert len(full) == 2  # u once, v once


# -- stacked block transforms --------------------------------------------------

# The fixture's grids, and one where the top blocks of Pi fill two stacks.
STACK_GRIDS = GRIDS + [Grid(1, 4096, np.pi)]
STACK_IDS = ["d1-n256", "d2-n64", "d1-box4", "d1-n4096"]


@pytest.fixture(scope="module", params=STACK_GRIDS, ids=STACK_IDS)
def stack_case(request):
    grid = request.param
    rng = np.random.default_rng(29)
    return grid, [rng.standard_normal(grid.shape) for _ in range(7)]


def _one_block(decomp, sym, spec):
    """irfft(sym * spec), a transform of its own."""
    return decomp.irfft(sym * spec)


def _block_sum_one_at_a_time(decomp, resonant, fspec, gspec, m):
    """_block_sum with every block transformed on its own, in its order of
    summation."""
    grid = decomp.grid
    groups, full = paraproducts._schedule(decomp, resonant)
    acc = np.zeros(grid.shape)
    for fband, gband in full:
        acc += _one_block(decomp, decomp.half_band(*fband), fspec) * _one_block(
            decomp, decomp.half_band(*gband), gspec)
    spec = np.zeros(decomp.radius.shape, complex)
    for size, syms in groups:
        k = len(syms) // 2
        fb = [decomp.irfft(s * decomp.restrict(fspec, size), size) for s in syms[:k]]
        gb = [decomp.irfft(s * decomp.restrict(gspec, size), size) for s in syms[k:]]
        prod = np.sum(np.stack(fb) * np.stack(gb), axis=0)
        prod *= (size / grid.n) ** grid.dim
        decomp.scatter_add(spec, decomp.rfft(prod), size)
    if m:
        spec += decomp.rfft(acc)
        spec *= decomp.half_power(m)
        return decomp.irfft(spec)
    return decomp.irfft(spec) + acc


def test_stacked_block_sums_are_bit_identical(stack_case):
    grid, (f, g, *_) = stack_case
    decomp = make_partition(grid)
    u, v = Field(grid, f), Field(grid, g)
    fspec, gspec = u.spectrum, v.spectrum
    inverse = decomp.half_power(-2) * gspec
    for name, got, want in [
        ("P", paraproduct(decomp, u, v), _block_sum_one_at_a_time(decomp, False, fspec, gspec, 0)),
        ("P^2", modified_paraproduct(decomp, 2, u, v),
         _block_sum_one_at_a_time(decomp, False, fspec, inverse, 2)),
        ("Pi", resonant(decomp, u, v), _block_sum_one_at_a_time(decomp, True, fspec, gspec, 0)),
    ]:
        assert np.array_equal(got.values, want), name


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_a_one_pair_block_sum_is_the_modified_paraproduct(stack_case, m):
    """paraproduct_sum over one pair is P^m bit for bit, and so the block
    sum with every block transformed on its own."""
    grid, (f, g, *_) = stack_case
    decomp = make_partition(grid)
    u, v = Field(grid, f), Field(grid, g)
    got = paraproducts.paraproduct_sum(decomp, m, [(u, v)]).values
    assert np.array_equal(got.view(np.int64), modified_paraproduct(decomp, m, u, v).values.view(np.int64))
    gspec = decomp.half_power(-m) * v.spectrum if m else v.spectrum
    want = _block_sum_one_at_a_time(decomp, False, u.spectrum, gspec, m)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("grid", [Grid(1, 4096, np.pi), Grid(2, 256, np.pi)], ids=["d1", "d2"])
def test_a_block_sum_is_the_sum_of_its_products(grid):
    """Over several pairs, sub-grid groups on both grids, paraproduct_sum
    equals the products added one by one, to 1e-12 of the largest value;
    over none it is zero."""
    decomp = make_partition(grid)
    rng = np.random.default_rng(47)
    fields = [Field(grid, rng.standard_normal(grid.shape)) for _ in range(4)]
    pairs = [(fields[0], fields[1]), (fields[2], fields[1]), (fields[3], fields[0])]
    assert paraproducts._schedule(decomp, False)[0]
    for m in range(4):
        got = paraproducts.paraproduct_sum(decomp, m, iter(pairs)).values
        want = sum(modified_paraproduct(decomp, m, f, g).values for f, g in pairs)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), m
    assert not paraproducts.paraproduct_sum(decomp, 0, []).values.any()


def _d_family_one_at_a_time(families, alphas, mask):
    """d_family_report with each pairing transformed on its own."""
    decomp = make_partition(families[0].grid)
    out = []
    for fam, alpha in zip(families, alphas):
        norms_, medians = np.zeros(decomp.j_max + 2), np.zeros(decomp.j_max + 2)
        for j in range(1, decomp.j_max + 1):
            sym = decomp.half_gauss(j)
            vals = np.zeros(decomp.grid.shape)
            for c, u in fam.terms:
                vals += c * _one_block(decomp, sym, decomp.rfft(u))
            norms_[j + 1], medians[j + 1] = norms.scale_stats(vals, mask=mask)
        out.append(norms.NormReport.from_blocks(norms_, medians, alpha))
    return out


def test_stacked_d_family_reports_are_bit_identical(stack_case):
    """One family with more distinct fields than a stack holds, and several
    families sharing fields with each other and within one family."""
    grid, (a, b, c, d, e, f, g) = stack_case
    ones = np.ones(grid.shape)
    single = SeparableFamily(grid, [(a, b), (ones, c), (-b, d), (c, e), (d, f), (e, g), (g, a)])
    shared = [
        SeparableFamily(grid, [(a, b), (ones, c), (-b, a)]),
        SeparableFamily(grid, [(c, b), (a, d), (e, c), (f, e), (g, f), (ones, g), (d, a), (b, d)]),
        SeparableFamily(grid, [(b, b)]),
    ]
    mask = interior_mask(grid)
    for families, alphas in [([single], [0.5]), (shared, [0.5, 0.25, 1.0])]:
        got = d_family_report(families, alphas, mask=mask)
        want = _d_family_one_at_a_time(families, alphas, mask)
        for r, w in zip(got, want):
            assert np.array_equal(r.block_norms, w.block_norms)
            assert (r.slope, r.intercept, r.fit_js) == (w.slope, w.intercept, w.fit_js)
    assert np.array_equal(d_family_report(single, 0.5).block_norms,
                          _d_family_one_at_a_time([single], [0.5], None)[0].block_norms)



@pytest.mark.parametrize("grid", [Grid(1, 512, np.pi), Grid(2, 64, np.pi)], ids=["d1", "d2"])
def test_a_constant_field_is_its_own_pairing(monkeypatch, grid):
    """Every Gaussian window pairs the constant 1 to itself, bit for bit, so
    d_family_report transforms no row for it: one row per scale, the other
    field's, for a family of Pi(1) = 1 and one other field."""
    decomp = make_partition(grid)
    ones = np.ones(grid.shape)
    for j in range(1, decomp.j_max + 1):
        (row,) = decomp.blocks([(decomp.half_gauss(j), decomp.rfft(ones))])
        assert np.array_equal(row.view(np.int64), ones.view(np.int64)), j
    rng = np.random.default_rng(53)
    a, b, u = (rng.standard_normal(grid.shape) for _ in range(3))
    rows, irfft = [], blocks.BlockDecomposition.irfft

    def counting(self, spec, size=None, out=None):
        rows.append(len(spec) if spec.ndim > grid.dim else 1)
        return irfft(self, spec, size, out)

    monkeypatch.setattr(blocks.BlockDecomposition, "irfft", counting)
    d_family_report(SeparableFamily(grid, [(a, ones), (b, u)]), 0.5)
    assert sum(rows) == decomp.j_max

def _count_full_grid_inverse(monkeypatch, grid):
    calls = []
    irfftn, irfft = np.fft.irfftn, np.fft.irfft

    def counting(a, s=None, axes=None, norm=None, out=None):
        if s is not None and s[-1] == grid.n:
            calls.append(np.shape(a)[: np.ndim(a) - grid.dim])
        return irfftn(a, s=s, axes=axes, norm=norm, out=out)

    def counting_1d(a, n=None, axis=-1, norm=None, out=None):
        if n == grid.n:
            calls.append(np.shape(a)[: np.ndim(a) - 1])
        return irfft(a, n=n, axis=axis, norm=norm, out=out)

    monkeypatch.setattr(np.fft, "irfftn", counting)
    monkeypatch.setattr(np.fft, "irfft", counting_1d)
    return calls


@pytest.mark.parametrize("grid", [Grid(1, 4096, np.pi), Grid(2, 64, np.pi)], ids=["d1", "d2"])
def test_stack_depth_follows_the_dimension(monkeypatch, grid):
    """Four blocks per inverse FFT in d = 1, one in d = 2; each side's
    factors of a sub-grid group in one transform, the F then the G side."""
    decomp = make_partition(grid)
    f = Field(grid, np.random.default_rng(31).standard_normal(grid.shape))
    assert decomp.lanes == (4 if grid.dim == 1 else 1)
    calls = _count_full_grid_inverse(monkeypatch, grid)
    holder_norm(f, 0.5)
    live = len(decomp.live_js)
    assert len(calls) == (-(-live // 4) if grid.dim == 1 else live)
    assert all(stack[0] <= decomp.lanes for stack in calls)
    sub = _count_subgrid_transforms(monkeypatch, grid)
    for is_resonant in (False, True):
        del sub[:]
        paraproducts._block_sum(decomp, is_resonant, [(f, f)])
        groups = paraproducts._schedule(decomp, is_resonant)[0]
        assert sub == [(size,) * grid.dim for size, _syms in groups for _side in "fg"]


def test_a_product_of_fresh_fields_transforms_each_side_apart(monkeypatch):
    """P^2 of two fresh Fields at n = 1024 makes 11 inverse FFTs: the F
    then the G side's stack of its 2 top-block rows, then per sub-grid
    group one transform of the F and one of the G side's rows, then the
    final transform."""
    grid = Grid(1, 1024, np.pi)
    decomp = make_partition(grid)
    rng = np.random.default_rng(37)
    u, v = (Field(grid, rng.standard_normal(grid.shape)) for _ in range(2))
    groups, full = paraproducts._schedule(decomp, False)
    calls = []
    irfft = blocks.BlockDecomposition.irfft

    def counting(self, spec, size=None, out=None):
        calls.append((spec.shape[:-1], size or grid.n))
        return irfft(self, spec, size, out)

    monkeypatch.setattr(blocks.BlockDecomposition, "irfft", counting)
    modified_paraproduct(decomp, 2, u, v)
    per_group = [((len(syms) // 2,), size) for size, syms in groups for _side in "fg"]
    assert calls == [((len(full),), grid.n), ((len(full),), grid.n), *per_group, ((), grid.n)]
    assert (len(groups), len(full), len(calls)) == (4, 2, 11)


def _block_pairs(decomp, count):
    """`count` (symbol, half spectrum) pairs on decomp's grid: live block
    symbols, every third one times a derivative symbol (complex), against
    random spectra."""
    rng = np.random.default_rng(43)
    live = decomp.live_js
    out = []
    for i in range(count):
        sym = decomp.half_rho(live[i % len(live)])
        if i % 3 == 2:
            sym = sym * decomp.half_derivative((1,) * decomp.grid.dim)
        out.append((sym, Field(decomp.grid, rng.standard_normal(decomp.grid.shape)).spectrum))
    return out


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("grid", [Grid(1, 4096, np.pi), Grid(2, 64, np.pi)], ids=["d1", "d2"])
def test_block_rows_are_the_lone_transforms(grid):
    """`blocks` yields irfft(sym * spec) bit for bit, pair by pair, for every
    count of pairs from none to two full stacks and one more."""
    decomp = make_partition(grid)
    pairs = _block_pairs(decomp, 2 * decomp.lanes + 1)
    lone = [_bits(decomp.irfft(sym * spec)) for sym, spec in pairs]
    for count in range(len(pairs) + 1):
        rows = [_bits(row) for row in decomp.blocks(iter(pairs[:count]))]
        assert rows == lone[:count], count


@pytest.mark.parametrize("grid", [Grid(1, 4096, np.pi), Grid(2, 64, np.pi)], ids=["d1", "d2"])
def test_a_block_row_is_intact_until_the_next_is_taken(grid):
    """Each row is its lone transform until the next one is taken, and all
    rows live in a ring of `lanes` rows (4 in d = 1, one grid array in
    d = 2), or of as many as there are pairs when they are fewer."""
    decomp = make_partition(grid)
    pairs = _block_pairs(decomp, 2 * decomp.lanes + 2)
    lone = [_bits(decomp.irfft(sym * spec)) for sym, spec in pairs]
    for count in (len(pairs), 2):
        taken, slots = 0, set()
        for row in decomp.blocks(pairs[:count]):
            assert _bits(row) == lone[taken], taken
            slots.add(row.__array_interface__["data"][0])
            taken += 1
        assert taken == count
        assert len(slots) == min(decomp.lanes, count)


def test_two_pairs_take_a_stack_of_two_rows():
    """Two pairs at n = 32768 (four lanes) take a stack of two rows, not
    of four: the traced peak of the call is its two-row ring and a two-row
    stack, with less than a third stack row to spare."""
    grid = Grid(1, 32768, np.pi)
    decomp = make_partition(grid)
    pairs = _block_pairs(decomp, 2)
    ring, stack_row = 2 * 8 * grid.n, 16 * decomp.radius.size   # float rows, complex rows
    tracemalloc.start()
    try:
        for _row in decomp.blocks(pairs):
            pass
        del _row
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ring + 3 * stack_row
    assert peak >= ring + 2 * stack_row


# -- the heap policy -----------------------------------------------------------

def test_plans_of_large_grids_pin_the_heap_policy(monkeypatch):
    """A plan whose N-point array reaches glibc's default mmap threshold
    (128 KiB) pins the heap policy; smaller plans leave it alone."""
    calls = []
    monkeypatch.setattr(blocks, "pin_heap", lambda: calls.append(1))
    blocks.spectral_plan(Grid(1, 8192, 1.25))     # 64 KiB
    assert calls == []
    blocks.spectral_plan(Grid(1, 16384, 1.25))    # 128 KiB
    blocks.spectral_plan(Grid(2, 128, 1.25))      # 128 KiB
    assert calls == [1, 1]


# Three rounds of kernel calls at n = 32768, each holding its operands and
# results until the round ends, as a pipeline pass does.  Under glibc's
# dynamic thresholds every round faults in about 3.7K pages (15 MB) anew;
# under the pinned policy the rounds after a warm-up fault in at most a few
# dozen.
FAULT_ROUNDS = 3
FAULT_BUDGET = 512
FAULT_PROBE = """
    import resource
    import numpy as np
    from regpara.blocks import make_partition
    from regpara.grid import Field, Grid
    from regpara.norms import SeparableFamily, d_family_report, holder_norm, interior_mask
    from regpara.paraproducts import modified_paraproduct, resonant

    grid = Grid(1, 32768, np.pi)
    decomp = make_partition(grid)
    rng = np.random.default_rng(3)
    vals = [rng.standard_normal(grid.shape) for _ in range(3)]
    fam = SeparableFamily(grid, [(vals[0], vals[1]), (vals[2], vals[0]), (vals[1], vals[1])])
    mask = interior_mask(grid)

    def round_of_calls():
        out = []
        for a in range(3):
            f, g = Field(grid, vals[a]), Field(grid, vals[a - 1])
            out += [f, g, modified_paraproduct(decomp, 2, f, g), resonant(decomp, f, g),
                    holder_norm(f, 0.5, mask=mask), d_family_report(fam, 0.5, mask=mask)]
        return out

    round_of_calls()
    start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range({rounds}):
        round_of_calls()
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is glibc's")
def test_warm_kernels_fault_in_no_new_memory():
    """Run in a fresh interpreter, so the heap's state is the probe's own."""
    src = str(Path(blocks.__file__).resolve().parents[1])
    code = textwrap.dedent(FAULT_PROBE.format(rounds=FAULT_ROUNDS))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    faults = int(proc.stdout.split()[-1])
    assert faults <= FAULT_BUDGET, faults
