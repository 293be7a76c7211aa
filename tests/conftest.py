"""Shared fixtures: grids, shipped structures, and prebuilt random models."""
from __future__ import annotations

import numpy as np
import pytest

from regpara.algebra import ConcreteRegularityStructure, FreeVector
from regpara.grid import Field, Grid
from regpara.library import structure
from regpara.models import build_g, build_pi, g_as_model, random_brackets
from regpara.paraproducts import modified_paraproduct


@pytest.fixture(scope="session")
def grid256():
    return Grid(1, 256, np.pi)


@pytest.fixture(scope="session")
def grid512():
    return Grid(1, 512, np.pi)


@pytest.fixture(scope="session")
def toy_structure():
    return structure("toy")


@pytest.fixture(scope="session")
def bhz_structure():
    return structure("bhz")


def build_random_model(S, grid, seed=20):
    gb, pib = random_brackets(S, grid, seed)
    return build_pi(S, grid, build_g(S, grid, gb), pib), gb, pib


def lone_product(ex, c, u) -> np.ndarray:
    """P^m_c u of the extractor ex's order m, formed alone by
    `modified_paraproduct`, for Fields or arrays c and u."""
    fields = (x if isinstance(x, Field) else Field(ex.model.grid, x) for x in (c, u))
    return modified_paraproduct(ex.decomp, ex.m, *fields).values


def products_one_by_one(ex, start, terms, sign=-1) -> np.ndarray:
    """start + sign * P^m_c u for each (c, u) of terms, each product formed
    alone (`lone_product`) and added in order into a copy of start: the
    reference a step's block sum is checked against."""
    acc = np.array(start.values if isinstance(start, Field) else start, dtype=float)
    for c, u in terms:
        acc += sign * lone_product(ex, c, u)
    return acc


def perturbed_structure(S, table, name, key, coeff):
    """A copy of S whose `table` ("dplus_table" or "delta_table") entry for
    generator `name` has coefficient `coeff` on `key`; all else unchanged."""
    tables = {"dplus_table": dict(S.dplus_table), "delta_table": dict(S.delta_table)}
    vec = tables[table][name]
    tables[table][name] = vec + FreeVector.single(key, coeff - vec.coeff(key))
    return ConcreteRegularityStructure(S.dim, S.cutoff, S.plus_gens, S.base_gens,
                                       name=S.name + "-perturbed", **tables)


@pytest.fixture(scope="session")
def toy_model(toy_structure, grid512):
    return build_random_model(toy_structure, grid512)


@pytest.fixture(scope="session")
def bhz_model(bhz_structure, grid512):
    return build_random_model(bhz_structure, grid512)


@pytest.fixture(scope="session")
def toy_g_model(toy_structure, grid512, toy_model):
    model, _gb, _pib = toy_model
    return g_as_model(toy_structure, grid512, model.g)


@pytest.fixture(scope="session")
def bhz_g_model(bhz_structure, grid512, bhz_model):
    model, _gb, _pib = bhz_model
    return g_as_model(bhz_structure, grid512, model.g)
