"""Zigzag diagrams of finite sets, their inverse limits, and partition algebras.

A zigzag diagram records the label sets of fibers and cobordisms together
with the two maps into each cobordism. Its inverse limit is the set of
consistent label tuples; over a circle the first and last fiber are the same
set and tuples must close up. Cardinalities are computed exactly with integer
transfer matrices, so they stay correct far past any enumeration cap.

Partition algebras stand in for the function algebras on these sets: a
subalgebra generated by finitely many functionals is determined by the
partition into level sets, and dualizing a partition recovers the underlying
point set of its spectrum. All algebra operations here are partition
operations for that reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "LimitError",
    "ZigzagSetDiagram",
    "LimitResult",
    "inverse_limit",
    "PartitionAlgebra",
    "partition_algebra",
    "partition_from_functionals",
    "join_partitions",
    "pullback_partition",
    "ZigzagAlgebraDiagram",
    "AlgebraLimit",
    "limit_of_algebras",
    "diagrams_isomorphic",
]

Label = Hashable


class LimitError(ValueError):
    """Malformed diagram, partition, or map."""


# ---------------------------------------------------------------------------
# set-level diagrams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZigzagSetDiagram:
    """Fibers and cobordisms with fiber-to-cobordism maps.

    fiber_sets has one more entry than cobordism_sets; on a circle the last
    fiber entry repeats the first and the final cobordism closes the loop.
    """

    shape: str
    fiber_sets: Tuple[Tuple[Label, ...], ...]
    cobordism_sets: Tuple[Tuple[Label, ...], ...]
    left_maps: Tuple[Dict[Label, Label], ...]
    right_maps: Tuple[Dict[Label, Label], ...]

    def __post_init__(self) -> None:
        if self.shape not in ("interval", "circle"):
            raise LimitError("diagram shape must be 'interval' or 'circle'")
        n = len(self.cobordism_sets)
        if len(self.fiber_sets) != n + 1:
            raise LimitError("fiber count must exceed cobordism count by one")
        if len(self.left_maps) != n or len(self.right_maps) != n:
            raise LimitError("need one left and one right map per cobordism")
        for labels in self.fiber_sets + self.cobordism_sets:
            if len(set(labels)) != len(labels):
                raise LimitError("labels within one object must be distinct")
        if self.shape == "circle" and self.fiber_sets[0] != self.fiber_sets[-1]:
            raise LimitError("a circle diagram must repeat its first fiber at the end")
        for i in range(n):
            cob = set(self.cobordism_sets[i])
            for name, fiber, mapping in (
                ("left", self.fiber_sets[i], self.left_maps[i]),
                ("right", self.fiber_sets[i + 1], self.right_maps[i]),
            ):
                if set(mapping.keys()) != set(fiber):
                    raise LimitError(f"{name} map {i} must be defined on the whole fiber")
                for v in mapping.values():
                    if v not in cob:
                        raise LimitError(f"{name} map {i} has a value outside the cobordism set")


@dataclass(frozen=True)
class LimitResult:
    cardinality: int
    elements: Tuple[Tuple[Label, ...], ...]
    truncated: bool


def _transfer_matrices(z: ZigzagSetDiagram) -> Tuple[List[List[Tuple[Label, ...]]], List[List[List[int]]]]:
    """Sorted fiber labels and 0/1 relation matrices between consecutive fibers."""
    fibers = [sorted(fs) for fs in z.fiber_sets]  # type: ignore[type-var]
    mats = []
    for i in range(len(z.cobordism_sets)):
        a, b = fibers[i], fibers[i + 1]
        left, right = z.left_maps[i], z.right_maps[i]
        mats.append([[1 if left[x] == right[y] else 0 for y in b] for x in a])
    return fibers, mats


def _mat_mul(a: List[List[int]], b: List[List[int]]) -> List[List[int]]:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for t in range(inner):
            v = ai[t]
            if v:
                bt = b[t]
                for j in range(cols):
                    oi[j] += v * bt[j]
    return out


def inverse_limit(z: ZigzagSetDiagram, max_elements: int = 10000) -> LimitResult:
    """Exact cardinality and a lexicographic prefix of the limit elements.

    Elements are tuples with one fiber label per fiber entry (a circle tuple
    therefore repeats its starting label at the end). Enumeration stops at
    max_elements; the cardinality is exact regardless.
    """
    fibers, mats = _transfer_matrices(z)
    n = len(mats)
    if any(len(f) == 0 for f in fibers):
        return LimitResult(0, (), False)
    if n == 0:
        elems = tuple((x,) for x in fibers[0])
        return LimitResult(len(elems), elems[:max_elements], len(elems) > max_elements)

    # suffix[i][x][y]: paths from label index x at fiber i to label index y at the end
    suffix: List[List[List[int]]] = [mats[-1]]
    for m in reversed(mats[:-1]):
        suffix.append(_mat_mul(m, suffix[-1]))
    suffix.reverse()

    last = suffix[0]
    if z.shape == "circle":
        cardinality = sum(last[x][x] for x in range(len(fibers[0])))
    else:
        cardinality = sum(sum(row) for row in last)

    elements: List[Tuple[Label, ...]] = []
    truncated = False

    def viable(i: int, x: int, target: Optional[int]) -> int:
        if i == n:
            if target is None:
                return 1
            return 1 if x == target else 0
        row = suffix[i][x]
        return row[target] if target is not None else sum(row)

    def walk(i: int, x: int, target: Optional[int], prefix: List[Label]) -> bool:
        nonlocal truncated
        prefix.append(fibers[i][x])
        if i == n:
            if len(elements) >= max_elements:
                truncated = True
                prefix.pop()
                return False
            elements.append(tuple(prefix))
            prefix.pop()
            return True
        m = mats[i]
        for y in range(len(fibers[i + 1])):
            if m[x][y] and viable(i + 1, y, target):
                if not walk(i + 1, y, target, prefix):
                    prefix.pop()
                    return False
        prefix.pop()
        return True

    for x0 in range(len(fibers[0])):
        target = x0 if z.shape == "circle" else None
        if viable(0, x0, target):
            if not walk(0, x0, target, []):
                break

    return LimitResult(int(cardinality), tuple(elements), truncated)


# ---------------------------------------------------------------------------
# partition algebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionAlgebra:
    """Subalgebra of functions on a finite set, stored as its level partition.

    Blocks are sorted internally and ordered by least element, so equal
    subalgebras compare equal. The empty ground set has no blocks.
    """

    ground: Tuple[Label, ...]
    blocks: Tuple[Tuple[Label, ...], ...]

    def block_of(self, x: Label) -> Tuple[Label, ...]:
        for b in self.blocks:
            if x in b:
                return b
        raise LimitError(f"{x!r} is not in the ground set")


def partition_algebra(ground: Iterable[Label], blocks: Iterable[Iterable[Label]]) -> PartitionAlgebra:
    g = tuple(sorted(set(ground)))  # type: ignore[type-var]
    norm = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b))  # type: ignore[arg-type]
    seen: List[Label] = []
    for b in norm:
        if not b:
            raise LimitError("blocks must be nonempty")
        seen.extend(b)
    if sorted(seen) != list(g) or len(seen) != len(set(seen)):  # type: ignore[type-var]
        raise LimitError("blocks must partition the ground set")
    return PartitionAlgebra(ground=g, blocks=norm)


def partition_from_functionals(ground: Iterable[Label],
                               functionals: Sequence[Mapping[Label, int]]) -> PartitionAlgebra:
    """Partition into joint level sets; the constant functional is implicit."""
    g = tuple(sorted(set(ground)))  # type: ignore[type-var]
    for f in functionals:
        if not set(g) <= set(f.keys()):
            raise LimitError("functional domain mismatch")
    groups: Dict[Tuple[int, ...], List[Label]] = {}
    for x in g:
        key = tuple(int(f[x]) for f in functionals)
        groups.setdefault(key, []).append(x)
    return partition_algebra(g, groups.values())


class _DisjointSet:
    def __init__(self, items: Iterable[Label]) -> None:
        self.parent: Dict[Label, Label] = {x: x for x in items}

    def find(self, x: Label) -> Label:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: Label, b: Label) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def join_partitions(p: PartitionAlgebra, q: PartitionAlgebra) -> PartitionAlgebra:
    """Finest partition that both inputs refine.

    A function is measurable for the join exactly when it is constant on
    every block of p and of q; as algebras this is the intersection of the
    two subalgebras.
    """
    if p.ground != q.ground:
        raise LimitError("joined partitions must share a ground set")
    ds = _DisjointSet(p.ground)
    for block in p.blocks + q.blocks:
        for x in block[1:]:
            ds.union(block[0], x)
    groups: Dict[Label, List[Label]] = {}
    for x in p.ground:
        groups.setdefault(ds.find(x), []).append(x)
    return partition_algebra(p.ground, groups.values())


def pullback_partition(g: Mapping[Label, Label], p: PartitionAlgebra,
                       cobordism_ground: Iterable[Label]) -> PartitionAlgebra:
    """Coarsest partition of the cobordism set whose functions pull back into p.

    g maps the fiber set (p's ground) into the cobordism set. A function u on
    the cobordism set pulls back into the subalgebra exactly when u is
    constant on the image of every block, so the blocks of the result merge
    each block's image and leave everything else as singletons.
    """
    cg = tuple(sorted(set(cobordism_ground)))  # type: ignore[type-var]
    if set(g.keys()) != set(p.ground):
        raise LimitError("pullback map must be defined on exactly the fiber set")
    for v in g.values():
        if v not in set(cg):
            raise LimitError("pullback map has a value outside the cobordism set")
    ds = _DisjointSet(cg)
    for block in p.blocks:
        first = g[block[0]]
        for x in block[1:]:
            ds.union(first, g[x])
    groups: Dict[Label, List[Label]] = {}
    for y in cg:
        groups.setdefault(ds.find(y), []).append(y)
    return partition_algebra(cg, groups.values())


# ---------------------------------------------------------------------------
# algebra-level diagrams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZigzagAlgebraDiagram:
    """Partition algebras on the fibers and cobordisms of a zigzag."""

    shape: str
    fiber_algebras: Tuple[PartitionAlgebra, ...]
    cobordism_algebras: Tuple[PartitionAlgebra, ...]
    left_maps: Tuple[Dict[Label, Label], ...]
    right_maps: Tuple[Dict[Label, Label], ...]

    def __post_init__(self) -> None:
        n = len(self.cobordism_algebras)
        if len(self.fiber_algebras) != n + 1:
            raise LimitError("fiber count must exceed cobordism count by one")
        if len(self.left_maps) != n or len(self.right_maps) != n:
            raise LimitError("need one left and one right map per cobordism")


@dataclass(frozen=True)
class AlgebraLimit:
    result: LimitResult
    dual_diagram: ZigzagSetDiagram


def _induced_block_map(g: Mapping[Label, Label], src: PartitionAlgebra,
                       dst: PartitionAlgebra) -> Dict[Label, Label]:
    block_of: Dict[Label, Tuple[Label, ...]] = {}
    for b in dst.blocks:
        for y in b:
            block_of[y] = b
    out: Dict[Label, Label] = {}
    for b in src.blocks:
        images = {block_of[g[x]] for x in b}
        if len(images) != 1:
            raise LimitError("incompatible diagram: a block maps across two cobordism blocks")
        out[b] = next(iter(images))
    return out


def limit_of_algebras(za: ZigzagAlgebraDiagram, max_elements: int = 10000) -> AlgebraLimit:
    """Dualize every algebra, induce the block maps, and take the inverse limit.

    The dual of a partition algebra, its spectrum, has one point per block.
    """
    fiber_sets = tuple(p.blocks for p in za.fiber_algebras)
    cob_sets = tuple(p.blocks for p in za.cobordism_algebras)
    left = []
    right = []
    for i in range(len(za.cobordism_algebras)):
        left.append(_induced_block_map(za.left_maps[i], za.fiber_algebras[i],
                                       za.cobordism_algebras[i]))
        right.append(_induced_block_map(za.right_maps[i], za.fiber_algebras[i + 1],
                                        za.cobordism_algebras[i]))
    dual = ZigzagSetDiagram(
        shape=za.shape,
        fiber_sets=fiber_sets,
        cobordism_sets=cob_sets,
        left_maps=tuple(left),
        right_maps=tuple(right),
    )
    return AlgebraLimit(result=inverse_limit(dual, max_elements=max_elements), dual_diagram=dual)


# ---------------------------------------------------------------------------
# diagram isomorphism
# ---------------------------------------------------------------------------


def _tau_exists(za: ZigzagSetDiagram, zb: ZigzagSetDiagram, i: int,
                sig_i: Dict[Label, Label], sig_next: Dict[Label, Label]) -> bool:
    if len(za.cobordism_sets[i]) != len(zb.cobordism_sets[i]):
        return False
    fwd: Dict[Label, Label] = {}
    used = set()

    def bind(x: Label, y: Label) -> bool:
        if x in fwd:
            return fwd[x] == y
        if y in used:
            return False
        fwd[x] = y
        used.add(y)
        return True

    for a in za.fiber_sets[i]:
        if not bind(za.left_maps[i][a], zb.left_maps[i][sig_i[a]]):
            return False
    for b in za.fiber_sets[i + 1]:
        if not bind(za.right_maps[i][b], zb.right_maps[i][sig_next[b]]):
            return False
    return True


def diagrams_isomorphic(za: ZigzagSetDiagram, zb: ZigzagSetDiagram) -> bool:
    """Whether some relabeling of every object carries one diagram to the other."""
    if za.shape != zb.shape or len(za.fiber_sets) != len(zb.fiber_sets):
        return False
    if any(len(a) != len(b) for a, b in zip(za.fiber_sets, zb.fiber_sets)):
        return False
    if any(len(a) != len(b) for a, b in zip(za.cobordism_sets, zb.cobordism_sets)):
        return False

    n = len(za.cobordism_sets)
    free = n if za.shape == "circle" else n + 1

    def assign(i: int, sigmas: List[Dict[Label, Label]]) -> bool:
        if i == free:
            if n == 0:
                return True
            last = sigmas[0] if za.shape == "circle" else sigmas[n]
            return _tau_exists(za, zb, n - 1, sigmas[n - 1], last)
        a_labels = sorted(za.fiber_sets[i])  # type: ignore[type-var]
        for perm in permutations(sorted(zb.fiber_sets[i])):  # type: ignore[type-var]
            sigma = dict(zip(a_labels, perm))
            if i > 0 and not _tau_exists(za, zb, i - 1, sigmas[i - 1], sigma):
                continue
            sigmas.append(sigma)
            if assign(i + 1, sigmas):
                return True
            sigmas.pop()
        return False

    return assign(0, [])
