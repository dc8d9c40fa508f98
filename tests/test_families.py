import itertools
import tracemalloc

import numpy as np
import pytest

from dense_reference import PartialInjection
from restalg.families import (
    all_partial_injections,
    gen_brandt,
    gen_group,
    gen_symmetric_inverse_monoid,
    maps_table,
)


def reference_table(images):
    """mul and star of a set of maps through PartialInjection.compose and
    .inverse, one pair at a time."""
    k = len(images[0])
    maps = [PartialInjection(k, tuple((p, q) for p, q in enumerate(row) if q >= 0)) for row in images]
    index = {f: x for x, f in enumerate(maps)}
    mul = [[index[f.compose(g)] for g in maps] for f in maps]
    return np.array(mul), np.array([index[f.inverse()] for f in maps])


def symmetric_images(n):
    return [list(p) for p in itertools.permutations(range(n))]


def partial_injection_images(n):
    maps = [PartialInjection(n, e) for e in all_partial_injections(n)]
    return [[f(p) if f(p) is not None else -1 for p in range(n)] for f in maps]


def brandt_images(g, n):
    """(i, a, j) as the map (j, h) -> (i, ah) on the points (row, h), in
    gen_brandt's order, then the empty map."""
    m = len(g)
    out = []
    for i, a, j in itertools.product(range(n), range(m), range(n)):
        row = [-1] * (n * m)
        for h in range(m):
            row[j * m + h] = i * m + g[a][h]
        out.append(row)
    return out + [[-1] * (n * m)]


def brandt_rule(g, n):
    """The Brandt table by its rule: (i, a, j)(k, b, l) is (i, ab, l) when
    j = k, else the zero."""
    m = len(g)
    enc = lambda i, a, j: (i * m + a) * n + j  # noqa: E731
    zero = n * n * m
    mul = np.full((zero + 1, zero + 1), zero)
    for i, a, j, b, l in itertools.product(range(n), range(m), range(n), range(m), range(n)):
        mul[enc(i, a, j), enc(j, b, l)] = enc(i, g[a][b], l)
    return mul


GROUPS = {
    "Z1": gen_group("cyclic", 1).mul.tolist(),
    "Z3": gen_group("cyclic", 3).mul.tolist(),
    "Z5": gen_group("cyclic", 5).mul.tolist(),
    "S3": gen_group("symmetric", 3).mul.tolist(),
}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_maps_table_matches_compose_on_symmetric_groups(n):
    mul, star = maps_table(symmetric_images(n))
    ref_mul, ref_star = reference_table(symmetric_images(n))
    assert np.array_equal(mul, ref_mul) and np.array_equal(star, ref_star)
    S = gen_group("symmetric", n)
    assert np.array_equal(S.mul, mul) and np.array_equal(S.star, star)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_maps_table_matches_compose_on_symmetric_inverse_monoids(n):
    mul, star = maps_table(partial_injection_images(n))
    ref_mul, ref_star = reference_table(partial_injection_images(n))
    assert np.array_equal(mul, ref_mul) and np.array_equal(star, ref_star)
    S = gen_symmetric_inverse_monoid(n)
    assert np.array_equal(S.mul, mul) and np.array_equal(S.star, star)


def test_symmetric_inverse_monoid_labels():
    # each map as its point>image pairs, points ascending
    I2 = gen_symmetric_inverse_monoid(2)
    assert I2.labels == ["[]", "[0>0]", "[0>1]", "[1>0]", "[1>1]", "[0>0 1>1]", "[0>1 1>0]"]


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("group", sorted(GROUPS))
def test_maps_table_matches_compose_on_brandt(group, n):
    g = GROUPS[group]
    mul, star = maps_table(brandt_images(g, n))
    ref_mul, ref_star = reference_table(brandt_images(g, n))
    assert np.array_equal(mul, ref_mul) and np.array_equal(star, ref_star)
    S = gen_brandt(g, n)
    assert np.array_equal(S.mul, brandt_rule(g, n))
    assert np.array_equal(S.mul, mul) and np.array_equal(S.star, star)


@pytest.mark.parametrize(
    "images, message",
    [
        ([[1, -1]], "no inverse"),  # 0 -> 1 on 2 points: neither 1 -> 0 nor the empty map
        # 1 -> 0 first, then 0 -> 1, gives 1 -> 1, which is missing
        ([[1, -1], [-1, 0], [-1, -1]], "composite of map 1 then map 0"),
        # map 0 is not injective, yet its scattered "inverse" 0 -> 1 is map 1
        ([[0, 0], [1, -1], [-1, 0]], "map 0 has no inverse"),
        ([[0], [0]], "distinct"),
        ([[2, -1]], "must lie in"),
    ],
)
def test_maps_table_rejects_sets_that_are_not_closed(images, message):
    with pytest.raises(ValueError, match=message):
        maps_table(images)


@pytest.mark.memory
@pytest.mark.parametrize("family", ["brandt-Z255", "I4"])
def test_generated_tables_compose_one_row_at_a_time(family):
    # a one-shot (m, m, k) gather of composites peaks at about 258 MiB on
    # B(Z255, 1), 256 maps on 255 points; row by row stays near the table
    if family == "brandt-Z255":
        z255 = gen_group("cyclic", 255).mul
        build = lambda: gen_brandt(z255, 1)  # noqa: E731
    else:
        build = lambda: gen_symmetric_inverse_monoid(4)  # noqa: E731
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
