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
from typing import Dict, Hashable, Iterable, List, Mapping, Tuple

__all__ = [
    "LimitError",
    "ZigzagSetDiagram",
    "LimitResult",
    "inverse_limit",
    "PartitionAlgebra",
    "partition_algebra",
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


def _pull(m: List[List[int]], v: List[int]) -> List[int]:
    """The product m v of a 0/1 matrix, as rows, and an integer vector."""
    return [sum(w for a, w in zip(row, v) if a) for row in m]


def _paths_back(mats: List[List[List[int]]], end: List[int], keep: bool) -> List[List[int]]:
    """Per fiber i, how many paths lead from each label to the last fiber,
    weighted there by end; keep=False returns fiber 0's counts alone."""
    back = [end]
    for m in reversed(mats):
        v = _pull(m, back[-1])
        if keep:
            back.append(v)
        else:
            back[0] = v
    return back[::-1]


def _first_elements(fibers: List[List[Label]], mats: List[List[List[int]]],
                    back: List[List[int]], x0: int, limit: int,
                    out: List[Tuple[Label, ...]]) -> None:
    """Append to out, in lexicographic order, the elements starting at label
    x0 of fiber 0 until out holds limit of them. back[i][x] counts the
    paths from label x of fiber i that end where an element may."""
    n = len(mats)

    def onward(i: int, x: int) -> List[int]:
        # Viable labels of fiber i + 1, largest first, so pop() takes the least.
        row, ahead = mats[i][x], back[i + 1]
        return [y for y in range(len(row) - 1, -1, -1) if row[y] and ahead[y]]

    path = [x0]
    todo = [onward(0, x0)]
    while todo:
        if not todo[-1]:
            todo.pop()
            path.pop()
            continue
        path.append(todo[-1].pop())
        if len(path) == n + 1:
            out.append(tuple(fibers[i][x] for i, x in enumerate(path)))
            if len(out) >= limit:
                return
            path.pop()
        else:
            todo.append(onward(len(path) - 1, path[-1]))


def inverse_limit(z: ZigzagSetDiagram, max_elements: int = 10000) -> LimitResult:
    """Exact cardinality and a lexicographic prefix of the limit elements.

    Elements are tuples with one fiber label per fiber entry (a circle tuple
    therefore repeats its starting label at the end). Enumeration stops at
    max_elements; the cardinality is exact regardless.

    The count pulls a vector back through the transfer matrices, one
    vector-matrix product per cobordism: the paths to the last fiber on an
    interval, and on a circle, per starting label, the paths back to it.
    Enumeration walks those paths depth first with an explicit stack,
    taking only labels with a path onward, so every leaf is an element and
    the walk is skipped when max_elements is 0.
    """
    fibers, mats = _transfer_matrices(z)
    n = len(mats)
    if any(len(f) == 0 for f in fibers):
        return LimitResult(0, (), False)
    if n == 0:
        elems = tuple((x,) for x in fibers[0])
        return LimitResult(len(elems), elems[:max_elements], len(elems) > max_elements)

    keep = max_elements > 0
    elements: List[Tuple[Label, ...]] = []
    if z.shape == "circle":
        cardinality = 0
        for x0 in range(len(fibers[0])):
            back = _paths_back(mats, [int(y == x0) for y in range(len(fibers[n]))], keep)
            cardinality += back[0][x0]
            if back[0][x0] and len(elements) < max_elements:
                _first_elements(fibers, mats, back, x0, max_elements, elements)
    else:
        back = _paths_back(mats, [1] * len(fibers[n]), keep)
        cardinality = sum(back[0])
        for x0 in range(len(fibers[0])):
            if back[0][x0] and len(elements) < max_elements:
                _first_elements(fibers, mats, back, x0, max_elements, elements)
    # Every leaf of the walk is an element, so it stops early exactly when
    # more elements exist than it may return.
    return LimitResult(int(cardinality), tuple(elements), cardinality > max(max_elements, 0))


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
