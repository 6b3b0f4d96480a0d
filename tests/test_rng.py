"""The pinned generator: one-draw normals against an explicit Box-Muller
transform of PCG64's uniforms, and the block draw against successive
one-draw calls."""

import math

import numpy as np
import pytest

from quatpinv.rng import QuatRNG

# element counts odd (one normal of the last pair dropped) and even
_SHAPES = [(1,), (3,), (7, 2), (5, 3, 4), (9, 9, 3), (33, 1, 4), (120, 8, 4)]


def _box_muller_ref(gen, shape):
    n = math.prod(shape)
    pairs = (n + 1) // 2
    u1 = 1.0 - gen.random(pairs)
    u2 = gen.random(pairs)
    r = np.sqrt(-2.0 * np.log(u1))
    return np.concatenate([r * np.cos(2.0 * np.pi * u2),
                           r * np.sin(2.0 * np.pi * u2)])[:n].reshape(shape)


@pytest.mark.parametrize("shape", _SHAPES)
def test_normals_is_box_muller_on_pcg64(shape):
    rng = QuatRNG(3)
    gen = np.random.Generator(np.random.PCG64(3))
    for _ in range(3):
        assert rng.normals(shape).tobytes() == \
            _box_muller_ref(gen, shape).tobytes()


@pytest.mark.parametrize("count", [1, 2, 16])
@pytest.mark.parametrize("shape", _SHAPES)
def test_block_draw_is_successive_draws(shape, count):
    rng, ref = QuatRNG(5), QuatRNG(5)
    rng.normals((2,))
    ref.normals((2,))
    Z = rng.normals(shape, count)
    assert Z.shape == (count, *shape)
    for z in Z:
        assert z.tobytes() == ref.normals(shape).tobytes()
    # the generator stands where the one-draw calls left it
    assert rng.uniform(4).tobytes() == ref.uniform(4).tobytes()
