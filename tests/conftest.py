from __future__ import annotations

import random
from fractions import Fraction

import pytest

from carpetcurl.carpet import CarpetSpec, Prefractal
from oracles import PiecewiseAffineField, affine_field, patch_from_vertex_values

F = Fraction

UNIT = ((F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1)))


@pytest.fixture(scope="session")
def spec3():
    return CarpetSpec((F(1, 3),))


@pytest.fixture(scope="session")
def spec35():
    return CarpetSpec((F(1, 3), F(1, 5)))


@pytest.fixture(scope="session")
def spec357():
    return CarpetSpec((F(1, 3), F(1, 5), F(1, 7)))


@pytest.fixture(scope="session")
def spec3579():
    return CarpetSpec((F(1, 3), F(1, 5), F(1, 7), F(1, 9)))


@pytest.fixture(scope="session")
def pf3_1(spec3):
    return Prefractal(spec3, 1)


@pytest.fixture(scope="session")
def pf35_2(spec35):
    return Prefractal(spec35, 2)


@pytest.fixture(scope="session")
def pf357_3(spec357):
    return Prefractal(spec357, 3)


def rational(rng, lo=-4, hi=4, max_den=5):
    return F(rng.randint(lo, hi), rng.randint(1, max_den))


def random_affine_field(rng):
    return affine_field(rational(rng), rational(rng), rational(rng))


def random_grid_field(rng, max_cuts=2):
    """Continuous piecewise-affine field on a random triangulated grid."""
    def cuts():
        vals = sorted({F(rng.randint(1, 11), 12) for _ in range(rng.randint(0, max_cuts))})
        return [F(0)] + vals + [F(1)]

    xs, ys = cuts(), cuts()
    values = {(x, y): rational(rng) for x in xs for y in ys}
    patches = []
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            bl = (xs[i], ys[j])
            br = (xs[i + 1], ys[j])
            tr = (xs[i + 1], ys[j + 1])
            tl = (xs[i], ys[j + 1])
            patches.append(patch_from_vertex_values((bl, br, tr), values[bl], values[br],
                                                    values[tr]))
            patches.append(patch_from_vertex_values((bl, tr, tl), values[bl], values[tr],
                                                    values[tl]))
    return PiecewiseAffineField(tuple(patches), 1)


def seeded(seed):
    return random.Random(seed)
