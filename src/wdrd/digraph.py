"""Core digraph type: dense arc storage, directed distances, two-way distances.

Vertices are the integers 0..n-1.  Arcs are ordered pairs of distinct
vertices stored as a dense boolean matrix; a pair of mutually inverse arcs
is an edge (digon).  All derived data (distance matrix, underlying graph,
adjacency bitmasks) is computed lazily and cached; instances are immutable
after construction and safe to share between workers.

`_bfs` here is the package's only breadth-first search.  Strong
connectivity (one BFS each way from vertex 0, once per digraph), scheme
primitivity and the pure kernel's leaf check (`_kernel_py.leaf_stage`) run
on it.  Distances come from one BFS per source or from layer products,
which expand every source's next distance layer at once as one float32
matrix product (`_layer_products`).  A product costs about n^3 flops
whatever the frontier, so `distance_matrix` takes products only on a
strongly connected digraph with n * e <= _PRODUCT_BUDGET, where e is the
larger of vertex 0's out- and in-eccentricity, which the connectivity BFS
gives.  Measured on a 2-vCPU x86 host with OpenBLAS, on one thread and on
two, the products took 0.04-0.06x the time of the per-source BFS on
Paley(59) and J(10,3), 0.2-0.3x on Cay(Z64, {1,2,5}) and 0.74x on the
directed 64-cycle (n * e = 4032).  On directed cycles and circulants,
whose diameter is e, they broke even between n * e = 6,000 and 12,000 and
were 1.6-1.7x slower on the 128-cycle and 3-3.6x on the 256-cycle.  The
diameter of a strongly connected digraph is at most 2e, so the budget
sits at half the crossover.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    DgfError,
    DuplicateArcError,
    EqualVerticesError,
    LoopArcError,
    NoCircuitError,
    NotStronglyConnectedError,
    NotSymmetricError,
    VertexOutOfRangeError,
)

# Sentinel for "no directed path".  Strictly larger than any possible path
# length; kept out of every serialized format.
INFINITY = 2**31 - 1

# Largest vertex count `parse_dgf` and the generators accept.  A digraph
# holds dense n x n matrices (the distance matrix alone is 8 n^2 bytes,
# 128 MB here), so a larger graph is refused before anything is allocated.
DGF_MAX_N = 4096

# Largest n * e for which `distance_matrix` uses layer products (module
# docstring).
_PRODUCT_BUDGET = 4096


class Digraph:
    """Immutable loop-free digraph on vertices 0..n-1."""

    __slots__ = ("n", "_adj", "_out_masks", "_in_masks", "_dist", "_underlying",
                 "_ecc0", "_array", "_mirror")

    def __init__(self, n: int, adj: np.ndarray):
        # Internal constructor: `adj` must already be validated.  Use
        # from_arcs for checked construction.
        self.n = n
        adj = np.ascontiguousarray(adj, dtype=bool)
        adj.setflags(write=False)
        self._adj = adj
        self._out_masks: tuple[int, ...] | None = None
        self._in_masks: tuple[int, ...] | None = None
        self._dist: np.ndarray | None = None
        self._underlying: Digraph | None = None
        self._ecc0: int | None = None
        # the intersection array or witness `generators.intersection_array`
        # found for this graph
        self._array = None
        # the digraph this one is the reverse of; derived data is read off it
        self._mirror: Digraph | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable[tuple[int, int]]) -> "Digraph":
        """Build a digraph from an arc list, validating every pair."""
        if n < 1:
            raise VertexOutOfRangeError(f"vertex count must be >= 1, got {n}")
        adj = np.zeros((n, n), dtype=bool)
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRangeError(f"arc ({u}, {v}) outside 0..{n - 1}")
            if u == v:
                raise LoopArcError(f"loop arc ({u}, {v})")
            if adj[u, v]:
                raise DuplicateArcError(f"duplicate arc ({u}, {v})")
            adj[u, v] = True
        return cls(n, adj)

    @classmethod
    def from_out_masks(cls, masks: Iterable[int]) -> "Digraph":
        """Fast unchecked constructor from per-vertex out-neighbour bitmasks."""
        masks = tuple(masks)
        n = len(masks)
        adj = np.zeros((n, n), dtype=bool)
        for v, m in enumerate(masks):
            adj[v, list(_mask_bits(m))] = True
        return cls(n, adj)

    # -- basic queries ------------------------------------------------------

    @property
    def adjacency(self) -> np.ndarray:
        """Dense boolean arc matrix (read-only view)."""
        return self._adj

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise VertexOutOfRangeError(f"vertex {v} outside 0..{self.n - 1}")

    def has_arc(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self._adj[u, v])

    def arcs(self) -> Iterator[tuple[int, int]]:
        """All arcs in lexicographic order."""
        for u, v in np.argwhere(self._adj):
            yield int(u), int(v)

    @property
    def arc_count(self) -> int:
        return int(self._adj.sum())

    @property
    def out_masks(self) -> tuple[int, ...]:
        if self._out_masks is None:
            self._out_masks = (self._mirror.in_masks if self._mirror else
                               tuple(_rows_to_masks(self._adj)))
        return self._out_masks

    @property
    def in_masks(self) -> tuple[int, ...]:
        if self._in_masks is None:
            self._in_masks = (self._mirror.out_masks if self._mirror else
                              tuple(_rows_to_masks(self._adj.T)))
        return self._in_masks

    def is_symmetric(self) -> bool:
        return self.out_masks == self.in_masks

    def reverse(self) -> "Digraph":
        """The digraph with every arc reversed.  It shares this digraph's
        derived data: swapped masks, the transposed distance matrix, the
        eccentricity of vertex 0 and the underlying graph."""
        r = Digraph(self.n, self._adj.T)
        r._mirror = self
        return r

    def __eq__(self, other) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and bool((self._adj == other._adj).all())

    def __hash__(self) -> int:
        return hash((self.n, self._adj.tobytes()))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={self.arc_count})"

    # -- distances ----------------------------------------------------------

    def is_strongly_connected(self) -> bool:
        """True iff every ordered pair of vertices is joined by a path."""
        return self._eccentricity0() >= 0

    def _eccentricity0(self) -> int:
        """The larger of vertex 0's out- and in-eccentricity, or -1 when the
        digraph is not strongly connected.  One BFS each way, once."""
        if self._ecc0 is None and self._mirror:
            self._ecc0 = self._mirror._eccentricity0()
        if self._ecc0 is None:
            full = (1 << self.n) - 1
            self._ecc0 = -1
            seen, out_sizes = _bfs(self.out_masks, 0)
            if seen == full:
                seen, in_sizes = _bfs(self.in_masks, 0)
                if seen == full:
                    # each size list ends with the empty layer past the last
                    self._ecc0 = max(len(out_sizes), len(in_sizes)) - 2
        return self._ecc0

    def distance_matrix(self) -> np.ndarray:
        """n x n matrix of shortest directed path lengths (INFINITY if none)."""
        if self._dist is None:
            n = self.n
            ecc = self._eccentricity0()
            if self._mirror:
                dist = self._mirror.distance_matrix().T
            elif 0 <= ecc and n * ecc <= _PRODUCT_BUDGET:
                dist = _layer_products(self._adj)
            else:
                out = self.out_masks
                rows = [[INFINITY] * n for _ in range(n)]
                for s in range(n):
                    _bfs(out, s, rows[s])
                dist = np.array(rows, dtype=np.int64).reshape(n, n)
            dist.setflags(write=False)
            self._dist = dist
        return self._dist

    def two_way_distance(self, x: int, y: int) -> tuple[int, int]:
        """The pair (distance x->y, distance y->x)."""
        self._check_vertex(x)
        self._check_vertex(y)
        d = self.distance_matrix()
        return int(d[x, y]), int(d[y, x])

    def two_way_distance_set(self) -> frozenset[tuple[int, int]]:
        """All two-way distances over ordered vertex pairs; contains (0,0)."""
        if not self.is_strongly_connected():
            raise NotStronglyConnectedError(
                "two-way distance set requires a strongly connected digraph")
        d = self.distance_matrix()
        return frozenset(zip(d.ravel().tolist(), d.T.ravel().tolist()))

    # -- derived graphs -----------------------------------------------------

    def underlying_graph(self) -> "Digraph":
        """Symmetrization: an edge wherever at least one arc exists."""
        if self._underlying is None:
            if self._mirror:
                self._underlying = self._mirror.underlying_graph()
            elif self.is_symmetric():
                self._underlying = self
            else:
                self._underlying = Digraph(self.n, self._adj | self._adj.T)
        return self._underlying

    def girth(self) -> int:
        """Length of a shortest circuit; a digon counts as a circuit of length 2."""
        back = self.distance_matrix().T[self._adj]  # d(v, u) of each arc (u, v)
        if not back.size or back.min() >= INFINITY:
            raise NoCircuitError("digraph contains no circuit")
        return int(back.min()) + 1

    def common_neighbours(self, x: int, z: int) -> frozenset[int]:
        """Common neighbours of x and z; requires a symmetric digraph."""
        self._check_vertex(x)
        self._check_vertex(z)
        if x == z:
            raise EqualVerticesError("common neighbours need two distinct vertices")
        if not self.is_symmetric():
            raise NotSymmetricError("common neighbours defined on graphs only")
        return frozenset(_mask_bits(self.out_masks[x] & self.out_masks[z]))


# -- bitmask helpers ---------------------------------------------------------

def _rows_to_masks(adj: np.ndarray) -> list[int]:
    """Row i as the integer with bit j set iff adj[i, j] is nonzero."""
    packed = np.packbits(adj, axis=1, bitorder="little")
    return [int.from_bytes(row, "little") for row in packed.tolist()]


def _mask_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _layer_products(adj: np.ndarray) -> np.ndarray:
    """Distances of a strongly connected digraph, every source at once.

    Row s of `frontier` is source s's latest distance layer; `frontier @ A`
    counts each vertex's arcs from it, so its positive cells not reached
    yet form the next layer.  The counts are at most n < 2^24, exact in
    float32.  A distance is the number of layers k >= 0 that have not
    reached its target yet, so each layer adds the unreached pairs."""
    eye = np.eye(len(adj), dtype=bool)
    unreached = ~(adj | eye)
    dist = unreached + (~eye).astype(np.int64)
    a = adj.astype(np.float32)
    frontier = a
    while unreached.any():
        nxt = frontier @ a > 0
        nxt &= unreached
        unreached ^= nxt
        dist += unreached
        frontier = nxt.astype(np.float32)
    return dist


def _bfs(masks, src, row=None, ref=None):
    """Breadth-first search from `src` over `masks`.  Writes the distance
    of each reached vertex into `row` when given.  Returns the set reached
    and the size of each distance layer, ending with an empty layer; with
    `ref`, returns None at the first layer whose size differs from ref's."""
    seen = frontier = 1 << src
    sizes = []
    depth = 0
    while True:
        size = frontier.bit_count()
        if ref is not None and ref[depth] != size:
            return None
        sizes.append(size)
        if not frontier:
            return seen, sizes
        nxt = 0
        m = frontier
        while m:  # not _mask_bits: this is the pure kernel's hot path
            low = m & -m
            v = low.bit_length() - 1
            if row is not None:
                row[v] = depth
            nxt |= masks[v]
            m ^= low
        frontier = nxt & ~seen
        seen |= frontier
        depth += 1


# -- DGF interchange format --------------------------------------------------
#
# Line 1: `n <count>`.  Every following non-empty, non-comment line declares
# one arc `u v` (0-based).  `#` starts a comment line.  Duplicate arc lines
# are errors.

# What `format_dgf` writes without a comment: the header and one `u v` line
# per arc.  Nine digits at most, so every number fits an int64.
_DGF_PLAIN = re.compile(r"n ([0-9]{1,9})\n((?:[0-9]{1,9} [0-9]{1,9}\n)*)")


def parse_dgf(text: str) -> Digraph:
    """Parse the DGF interchange format into a digraph."""
    d = _parse_plain_dgf(text)
    return d if d is not None else _parse_dgf_lines(text)


def _parse_plain_dgf(text: str) -> Digraph | None:
    """Whole-array parse of valid input in `_DGF_PLAIN` form; None for any
    other input, which `_parse_dgf_lines` then parses or rejects."""
    match = _DGF_PLAIN.fullmatch(text)
    if match is None:
        return None
    n = int(match[1])
    if not 1 <= n <= DGF_MAX_N:
        return None
    u, v = np.array(match[2].split(), dtype=np.int64).reshape(-1, 2).T
    if (u >= n).any() or (v >= n).any() or (u == v).any():
        return None
    adj = np.zeros((n, n), dtype=bool)
    adj[u, v] = True
    if np.count_nonzero(adj) != len(u):  # a duplicate arc
        return None
    return Digraph(n, adj)


def _parse_dgf_lines(text: str) -> Digraph:
    """Line-by-line parse; raises DgfError at the first fault."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise DgfError("empty DGF input")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "n":
        raise DgfError(f"DGF must start with 'n <count>', got {lines[0]!r}")
    try:
        n = int(head[1])
    except ValueError:
        raise DgfError(f"bad vertex count {head[1]!r}") from None
    if n > DGF_MAX_N:
        raise DgfError(f"vertex count {n} exceeds the DGF limit {DGF_MAX_N}")
    arcs = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise DgfError(f"bad arc line {ln!r}")
        try:
            arcs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise DgfError(f"bad arc line {ln!r}") from None
    try:
        return Digraph.from_arcs(n, arcs)
    except (LoopArcError, VertexOutOfRangeError, DuplicateArcError) as exc:
        raise DgfError(str(exc)) from exc


def format_dgf(d: Digraph, comment: str | None = None) -> str:
    """Serialize a digraph to DGF (arcs in lexicographic order)."""
    out = []
    if comment:
        for ln in comment.splitlines():
            out.append(f"# {ln}")
    out.append(f"n {d.n}")
    out.extend(f"{u} {v}" for u, v in d.arcs())
    return "\n".join(out) + "\n"
