import random

import pytest

from diagram_tools import brute_force_limit, random_diagram
from evasion_kit.limit import (
    LimitError,
    PartitionAlgebra,
    ZigzagAlgebraDiagram,
    ZigzagSetDiagram,
    diagrams_isomorphic,
    inverse_limit,
    join_partitions,
    limit_of_algebras,
    partition_algebra,
    pullback_partition,
)


def _chain(fibers, cobordisms, left, right, shape="interval"):
    return ZigzagSetDiagram(
        shape=shape,
        fiber_sets=tuple(tuple(f) for f in fibers),
        cobordism_sets=tuple(tuple(c) for c in cobordisms),
        left_maps=tuple(dict(m) for m in left),
        right_maps=tuple(dict(m) for m in right),
    )


# ---------------------------------------------------------------------------
# set diagrams
# ---------------------------------------------------------------------------


def test_diagram_validation():
    with pytest.raises(LimitError):
        _chain([(0,)], [], [], [], shape="triangle")
    with pytest.raises(LimitError):
        _chain([(0,), (0,)], [], [], [])
    with pytest.raises(LimitError):
        _chain([(0, 0)], [], [], [])
    with pytest.raises(LimitError):
        _chain([(0,), (1,)], [("c",)], [{}], [{1: "c"}])
    with pytest.raises(LimitError):
        _chain([(0,), (1,)], [("c",)], [{0: "x"}], [{1: "c"}])
    with pytest.raises(LimitError):
        _chain([(0,), (1,)], [("c",)], [{0: "c"}], [{1: "c"}], shape="circle")


def test_single_fiber_limit():
    z = _chain([(2, 0, 1)], [], [], [])
    res = inverse_limit(z)
    assert res.cardinality == 3
    assert res.elements == ((0,), (1,), (2,))
    assert not res.truncated


def test_empty_fiber_kills_the_limit():
    z = _chain([(0, 1), ()], [("c",)], [{0: "c", 1: "c"}], [{}])
    res = inverse_limit(z)
    assert res.cardinality == 0
    assert res.elements == ()


def test_split_shape_limit():
    # one pocket splitting into two: constant tuples only
    z = _chain(
        [(0,), (0, 1)],
        [("a", "b")],
        [{0: "a"}],
        [{0: "a", 1: "b"}],
    )
    res = inverse_limit(z)
    assert res.cardinality == 1
    assert res.elements == ((0, 0),)


def test_circle_limit_uses_closed_tuples():
    # two labels swapped by the loop: no closed tuple survives
    swap = _chain(
        [(0, 1), (0, 1)],
        [("a", "b")],
        [{0: "a", 1: "b"}],
        [{0: "b", 1: "a"}],
        shape="circle",
    )
    res = inverse_limit(swap)
    assert res.cardinality == 0
    ident = _chain(
        [(0, 1), (0, 1)],
        [("a", "b")],
        [{0: "a", 1: "b"}],
        [{0: "a", 1: "b"}],
        shape="circle",
    )
    res = inverse_limit(ident)
    assert res.cardinality == 2
    assert res.elements == ((0, 0), (1, 1))


def test_limit_matches_brute_force():
    rng = random.Random(9)
    for _ in range(300):
        z = random_diagram(rng)
        res = inverse_limit(z)
        want = brute_force_limit(z)
        assert res.cardinality == len(want)
        assert list(res.elements) == want
        assert not res.truncated


def test_limit_truncation():
    # full relation between two 4-label fibers: 16 elements
    z = _chain(
        [tuple(range(4)), tuple(range(4))],
        [("c",)],
        [{x: "c" for x in range(4)}],
        [{x: "c" for x in range(4)}],
    )
    res = inverse_limit(z, max_elements=5)
    assert res.cardinality == 16
    assert res.truncated
    assert len(res.elements) == 5
    assert res.elements == ((0, 0), (0, 1), (0, 2), (0, 3), (1, 0))


def test_limit_cardinality_exact_past_enumeration():
    # ten full stages: 5^11 paths, far beyond any enumeration cap
    fibers = [tuple(range(5))] * 11
    cobs = [("c",)] * 10
    maps = [{x: "c" for x in range(5)}] * 10
    z = _chain(fibers, cobs, maps, maps)
    res = inverse_limit(z, max_elements=10)
    assert res.cardinality == 5 ** 11
    assert res.truncated


def test_limit_truncation_prefix_matches_brute_force():
    # Every cap cuts the same lexicographic prefix that brute force lists.
    rng = random.Random(13)
    for _ in range(200):
        z = random_diagram(rng, max_cobordisms=4)
        want = brute_force_limit(z)
        for cap in (0, 1, 2, 5):
            res = inverse_limit(z, max_elements=cap)
            assert res.cardinality == len(want)
            assert list(res.elements) == want[:cap]
            assert res.truncated == (len(want) > cap)


@pytest.mark.parametrize("shape", ["interval", "circle"])
def test_deep_diagram_walks_without_recursion(shape):
    # One Python frame per fiber exceeded the recursion limit here, even at
    # max_elements=0, where only the count is needed.
    n = 5000
    fibers = [(1,)] * (n + 1)
    maps = [{1: 1}] * n
    z = _chain(fibers, [(1,)] * n, maps, maps, shape=shape)
    res = inverse_limit(z)
    assert (res.cardinality, res.elements, res.truncated) == (1, ((1,) * (n + 1),), False)
    res = inverse_limit(z, max_elements=0)
    assert (res.cardinality, res.elements, res.truncated) == (1, (), True)


def test_limit_elements_are_consistent():
    rng = random.Random(11)
    for _ in range(50):
        z = random_diagram(rng, allow_empty=False)
        for tup in inverse_limit(z).elements:
            for i in range(len(z.cobordism_sets)):
                assert z.left_maps[i][tup[i]] == z.right_maps[i][tup[i + 1]]
            if z.shape == "circle":
                assert tup[0] == tup[-1]


# ---------------------------------------------------------------------------
# partition algebras
# ---------------------------------------------------------------------------


def test_partition_algebra_normalizes():
    p = partition_algebra("cab", [("b", "a"), ("c",)])
    assert p.ground == ("a", "b", "c")
    assert p.blocks == (("a", "b"), ("c",))
    assert p.block_of("b") == ("a", "b")
    with pytest.raises(LimitError):
        p.block_of("z")
    assert p == partition_algebra("abc", [("c",), ("a", "b")])


def test_partition_algebra_rejects_non_partitions():
    with pytest.raises(LimitError):
        partition_algebra("ab", [("a",)])
    with pytest.raises(LimitError):
        partition_algebra("ab", [("a", "b"), ("b",)])
    with pytest.raises(LimitError):
        partition_algebra("ab", [("a", "b"), ()])


def test_join_partitions():
    g = range(6)
    p = partition_algebra(g, [(0, 1), (2, 3), (4,), (5,)])
    q = partition_algebra(g, [(1, 2), (0,), (3,), (4, 5)])
    j = join_partitions(p, q)
    assert j.blocks == ((0, 1, 2, 3), (4, 5))
    with pytest.raises(LimitError):
        join_partitions(p, partition_algebra(range(5), [tuple(range(5))]))


def test_pullback_partition_is_coarsest():
    # fiber {0,1,2} -> cobordism {a,b,c,d}; block {0,1} forces a~b
    g = {0: "a", 1: "b", 2: "c"}
    p = partition_algebra(range(3), [(0, 1), (2,)])
    out = pullback_partition(g, p, "abcd")
    assert out.blocks == (("a", "b"), ("c",), ("d",))
    with pytest.raises(LimitError):
        pullback_partition({0: "a"}, p, "abcd")
    with pytest.raises(LimitError):
        pullback_partition({0: "z", 1: "b", 2: "c"}, p, "abcd")


# ---------------------------------------------------------------------------
# algebra diagrams
# ---------------------------------------------------------------------------


def _algebra_diagram(fibers, cobs, left, right, shape="interval"):
    return ZigzagAlgebraDiagram(
        shape=shape,
        fiber_algebras=tuple(fibers),
        cobordism_algebras=tuple(cobs),
        left_maps=tuple(left),
        right_maps=tuple(right),
    )


def test_limit_of_algebras_two_singleton_blocks():
    # one block, one block, then two singleton blocks: the dual zigzag is
    # a point mapping into a two-point fiber, so the limit has two elements
    one = partition_algebra((0,), [(0,)])
    two = partition_algebra((0, 1), [(0,), (1,)])
    za = _algebra_diagram(
        [one, two],
        [one],
        [{0: 0}],
        [{0: 0, 1: 0}],
    )
    out = limit_of_algebras(za)
    assert out.result.cardinality == 2
    assert not out.result.truncated
    assert len(out.dual_diagram.fiber_sets[1]) == 2


def test_limit_of_algebras_rejects_split_blocks():
    # a fiber block whose image straddles two cobordism blocks is not an
    # algebra map on the partition level
    coarse = partition_algebra((0, 1), [(0, 1)])
    fine = partition_algebra(("a", "b"), [("a",), ("b",)])
    za = _algebra_diagram(
        [coarse, coarse],
        [fine],
        [{0: "a", 1: "b"}],
        [{0: "a", 1: "a"}],
    )
    with pytest.raises(LimitError):
        limit_of_algebras(za)


def test_limit_of_algebras_matches_set_limit_when_discrete():
    # with discrete partitions everywhere the dual diagram is the set diagram
    rng = random.Random(23)
    for _ in range(40):
        z = random_diagram(rng, allow_empty=False)
        za = _algebra_diagram(
            [partition_algebra(f, [(x,) for x in f]) for f in z.fiber_sets],
            [partition_algebra(c, [(x,) for x in c]) for c in z.cobordism_sets],
            z.left_maps,
            z.right_maps,
            shape=z.shape,
        )
        out = limit_of_algebras(za)
        assert out.result.cardinality == inverse_limit(z).cardinality


# ---------------------------------------------------------------------------
# isomorphism
# ---------------------------------------------------------------------------


def test_isomorphic_to_relabeling():
    z = _chain(
        [(0, 1), (0, 1, 2)],
        [("a", "b")],
        [{0: "a", 1: "b"}],
        [{0: "a", 1: "b", 2: "b"}],
    )
    relabeled = _chain(
        [("p", "q"), (7, 8, 9)],
        [(3, 4)],
        [{"p": 4, "q": 3}],
        [{7: 4, 8: 3, 9: 3}],
    )
    assert diagrams_isomorphic(z, relabeled)
    assert diagrams_isomorphic(relabeled, z)


def test_isomorphism_rejects_different_structure():
    fork = _chain(
        [(0,), (0, 1)],
        [("a", "b")],
        [{0: "a"}],
        [{0: "a", 1: "b"}],
    )
    merge = _chain(
        [(0,), (0, 1)],
        [("a", "b")],
        [{0: "a"}],
        [{0: "a", 1: "a"}],
    )
    assert not diagrams_isomorphic(fork, merge)
    sizes = _chain([(0, 1), (0, 1)], [("a",)], [{0: "a", 1: "a"}], [{0: "a", 1: "a"}])
    assert not diagrams_isomorphic(fork, sizes)


def test_isomorphism_respects_shape():
    ident = _chain(
        [(0, 1), (0, 1)],
        [("a", "b")],
        [{0: "a", 1: "b"}],
        [{0: "a", 1: "b"}],
    )
    circle = _chain(
        [(0, 1), (0, 1)],
        [("a", "b")],
        [{0: "a", 1: "b"}],
        [{0: "a", 1: "b"}],
        shape="circle",
    )
    assert not diagrams_isomorphic(ident, circle)
    assert diagrams_isomorphic(circle, circle)


def test_isomorphism_on_circle_must_close():
    # swapping loop vs identity loop: same objects, different closure
    swap = _chain(
        [(0, 1), (0, 1)],
        [("a", "b")],
        [{0: "a", 1: "b"}],
        [{0: "b", 1: "a"}],
        shape="circle",
    )
    ident = _chain(
        [(0, 1), (0, 1)],
        [("a", "b")],
        [{0: "a", 1: "b"}],
        [{0: "a", 1: "b"}],
        shape="circle",
    )
    assert diagrams_isomorphic(swap, swap)
    assert not diagrams_isomorphic(swap, ident)


def test_isomorphism_random_self_and_permuted():
    rng = random.Random(31)
    for _ in range(25):
        z = random_diagram(rng, allow_empty=False)
        assert diagrams_isomorphic(z, z)
        renamed = ZigzagSetDiagram(
            shape=z.shape,
            fiber_sets=tuple(tuple(f"f{x}" for x in fs) for fs in z.fiber_sets),
            cobordism_sets=tuple(tuple(("c", x) for x in cs) for cs in z.cobordism_sets),
            left_maps=tuple({f"f{k}": ("c", v) for k, v in m.items()} for m in z.left_maps),
            right_maps=tuple({f"f{k}": ("c", v) for k, v in m.items()} for m in z.right_maps),
        )
        assert diagrams_isomorphic(z, renamed)
