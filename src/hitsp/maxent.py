"""Weighted spanning-tree distributions: counting, marginals, fitting, sampling.

A distribution over spanning trees of a multigraph is described by one weight
per edge; a tree's probability is proportional to the product of its edge
weights.  This module provides exact (rational-arithmetic) and float routines
for tree counts and single-edge marginals, an exact kernel (one inverse of
the grounded Laplacian) for parity characters E[(-1)^|T & F|], whose
inverse Walsh-Hadamard transform gives every exact law the pipelines use
(``ojoin.parity_laws``), a multiplicative fixed-point fitter that finds
weights realizing prescribed marginals for a stack of levels in lockstep,
and a loop-erased random-walk sampler.  :class:`TreeLevel` is the one
fitted level both sampling pipelines use: its walk tables are built once,
and its exact kernel answers the characters of a batch of sets of the
caller's edge ids; callers multiply the characters of independent levels.

Graphs are given as ``(n, edges)`` with ``edges`` a sequence of ``(u, v)``
pairs over vertices ``0..n-1``; parallel edges are distinct entries and edge
identity is positional.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import ceil, prod
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from ._util import ResourceCapError


@dataclass(frozen=True)
class MarginalVector:
    """Per-edge tree membership probabilities, aligned with the edge list."""

    values: tuple

    def __len__(self) -> int:
        return len(self.values)


# The iterations a weight fit may take; a fit still short of tolerance then
# raises FitConvergenceError.
FIT_ITERATION_CAP = 100_000


class FitConvergenceError(ResourceCapError):
    """A marginal fit reached its iteration cap short of tolerance; carries
    its last error.  A resource cap, so the command line exits 4."""

    def __init__(self, message: str, error: float):
        super().__init__(message)
        self.error = error


@dataclass(frozen=True)
class LambdaFit:
    """Result of fitting weights to target marginals.

    ``values`` has one float per edge; ``error`` is the final max marginal
    error.
    """

    values: tuple[float, ...]
    error: float
    iterations: int


def _is_exact(lam: Sequence) -> bool:
    return all(isinstance(v, (int, Fraction)) for v in lam)


def _rationalized(lam: Sequence) -> list[Fraction]:
    """Exact weights as given; float weights rounded to denominators <= 10^12."""
    if _is_exact(lam):
        return [Fraction(v) for v in lam]
    return [Fraction(v).limit_denominator(10**12) for v in lam]


@cache
def _prime_table() -> tuple[int, ...]:
    """The primes in [2^31 - 2^17, 2^31), largest first (6,121 of them).

    Residues modulo them stay below 2^31, so a product of two stays below
    2^62 and int64 arithmetic never overflows.
    """
    low = (1 << 31) - (1 << 17)
    small = np.ones(46341, dtype=bool)  # 46341^2 > 2^31
    small[:2] = False
    for q in range(2, 216):
        if small[q]:
            small[q * q :: q] = False
    alive = np.ones(1 << 17, dtype=bool)
    for q in np.flatnonzero(small).tolist():
        alive[-low % q :: q] = False
    return tuple((low + np.flatnonzero(alive)[::-1]).tolist())


def _laplacian_entries(n: int, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where a weighted Laplacian's entries go: the non-loop edges' indices,
    and per such edge, in edge order, the flat n x n cells uu, vv, uv, vu
    and their signs +1, +1, -1, -1."""
    u, v = ends.T
    links = np.flatnonzero(u != v)
    lu, lv = u[links], v[links]
    cells = np.stack([lu * n + lu, lv * n + lv, lu * n + lv, lv * n + lu], 1).ravel()
    return links, cells, np.tile([1, 1, -1, -1], len(links))


def _laplacian(n: int, ends: np.ndarray, lam_p: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Each prime's Laplacian residues, grounded at vertex 0: shape (P, n-1, n-1).

    ``ends`` holds each edge's (u, v) and ``lam_p`` its weight residues, one
    row per prime in ``p``.  Every prime's 4m entries go through one
    ``np.bincount``, each prime offset by n^2 cells.  A cell sums at most
    deg(v) residues below 2^31, so its float64 sum is exact.
    """
    links, cells, signs = _laplacian_entries(n, ends)
    weights = np.repeat(lam_p[:, links], 4, axis=1) * signs
    cells = cells + np.arange(len(p))[:, None] * (n * n)
    lap = np.bincount(cells.ravel(), weights=weights.ravel(), minlength=len(p) * n * n)
    return lap.reshape(len(p), n, n)[:, 1:, 1:].astype(np.int64) % p[:, None, None]


def _inverse_mod(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Inverse of each entry of the (P, C) residue array ``a`` modulo its
    row's prime in ``p``; 0 stays 0.  One ``pow`` each up to 32 entries;
    past that, Montgomery's trick on a product tree along each row: one
    ``pow`` per row, and each node's inverse is its parent's times its
    sibling."""
    if a.size <= 32 or a.shape[1] == 1:
        q = np.repeat(p, a.shape[1]).tolist()
        out = [pow(x, -1, y) if x else 0 for x, y in zip(a.ravel().tolist(), q)]
        return np.array(out, dtype=np.int64).reshape(a.shape)
    p = p[:, None]
    ones = np.ones((len(a), (1 << (a.shape[1] - 1).bit_length()) - a.shape[1]), dtype=np.int64)
    tree = [np.concatenate([np.where(a == 0, 1, a), ones], 1)]
    while tree[-1].shape[1] > 1:
        tree.append(tree[-1][:, ::2] * tree[-1][:, 1::2] % p)
    inverse = _inverse_mod(tree[-1], p[:, 0])
    for x in reversed(tree[:-1]):
        inverse = np.repeat(inverse, 2, axis=1) * x.reshape(len(x), -1, 2)[:, :, ::-1].reshape(x.shape) % p
    return np.where(a == 0, 0, inverse[:, : a.shape[1]])


def _product(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a @ b modulo p (P,) for (P, i, k) and (P, k, j) residue stacks, exact
    in int64: b splits into 15- and 16-bit halves, so with residues below
    2^31 every partial sum stays below k * 2^47 <= 2^63 for k <= 2^16."""
    if a.shape[-1] > 1 << 16:
        raise ResourceCapError(f"inner dimension {a.shape[-1]} exceeds the int64 product's 2^16")
    p = p[:, None, None]
    return ((a @ (b >> 16) % p << 16) + a @ (b & 0xFFFF) % p) % p


def _small_inverse(a: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A^-1, det A) of each (s, s) residue matrix in the stack ``a`` modulo
    its prime in ``p``, by division-free Gauss-Jordan elimination of [A | I]
    with row pivoting: each step multiplies every row by the pivot p_c, so
    [A | I] ends [D | R], A^-1 = D^-1 R and det A = sign * prod(D) /
    prod(p_c)^s."""
    s = a.shape[1]
    a = np.concatenate([a, np.broadcast_to(np.eye(s, dtype=np.int64), a.shape)], 2)
    at, sign, pivots = np.arange(len(a)), np.ones_like(p), np.ones_like(p)
    for c in range(s):
        r = c + (a[:, c:, c] != 0).argmax(axis=1)
        if (r != c).any():
            a[at, r], a[:, c] = a[:, c].copy(), a[at, r]
            sign = np.where(r == c, sign, -sign)
        pivot, factor = a[:, c, c].copy(), a[:, :, c].copy()
        factor[:, c] = 0
        step = factor[:, :, None] * a[:, None, c]
        a *= pivot[:, None, None]
        a -= step
        a %= p[:, None, None]
        pivots = pivots * pivot % p
    diagonal = np.diagonal(a, axis1=1, axis2=2)
    inverse = _inverse_mod(np.concatenate([diagonal, pivots[:, None]], 1), p)
    det = sign % p
    for d in diagonal.T:
        det = det * d % p * inverse[:, s] % p
    return a[:, :, s:] * inverse[:, :s, None] % p[:, None, None], det


def _block_inverse(a: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A^-1, det A) of each symmetric (s, s) residue matrix in the stack
    ``a`` modulo its prime in ``p``, by 2 x 2 blocks [[A, B], [B^T, D]] down
    to 8 rows: with X = A^-1, T = X B, Y = S^-1 for S = D - B^T T and
    V = Y T^T, A^-1 = [[X + T V, -V^T], [-V, Y]] and det = det A * det S.
    det is 0 where a leading block is singular (A^-1 is then meaningless)."""
    s = a.shape[1]
    if s <= 8:
        return _small_inverse(a, p)
    h, p3 = s // 2, p[:, None, None]
    x, det_x = _block_inverse(a[:, :h, :h], p)
    t = _product(x, a[:, :h, h:], p)
    y, det_y = _block_inverse((a[:, h:, h:] - _product(a[:, h:, :h], t, p)) % p3, p)
    v = _product(y, t.transpose(0, 2, 1), p)
    w = -v % p3
    return np.block([[(x + _product(t, v, p)) % p3, w.transpose(0, 2, 1)], [w, y]]), det_x * det_y % p


def _determinants(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Determinant of each (k, k) residue matrix in the (P, B, k, k) stack
    ``a`` (overwritten) modulo its row's prime in ``p``, by division-free
    forward elimination with row pivoting: step c multiplies the rows below
    by pivot_c, so det = prod(pivots) / scale, scale = sign * prod_c
    pivot_c^(k-c-1)."""
    shape, k = a.shape[:2], a.shape[-1]
    a = a.reshape(shape[0] * shape[1], k, k)
    at, q = np.arange(len(a)), np.repeat(p, shape[1])
    det, scale = np.ones(len(a), dtype=np.int64), np.ones(len(a), dtype=np.int64)
    for c in range(k):
        r = c + (a[:, c:, c] != 0).argmax(axis=1)
        if (r != c).any():
            a[at, r, c:], a[:, c, c:] = a[:, c, c:].copy(), a[at, r, c:]
            scale = np.where(r == c, scale, -scale % q)
        pivot = a[:, c, c]
        scale, det = scale * det % q, det * pivot % q
        step = a[:, c + 1 :, c, None] * a[:, None, c, c + 1 :]
        below = a[:, c + 1 :, c + 1 :]
        below *= pivot[:, None, None]
        below -= step
        below %= q[:, None, None]
    if k > 1:
        det = det * _inverse_mod(scale.reshape(shape), p).ravel() % q
    return det.reshape(shape)


class TreeKernel:
    """Exact transfer-current kernel of one weighted multigraph's tree law.

    With b_e the signed incidence vector of edge e, L the Laplacian grounded
    at vertex 0 and y(e, f) = b_e^T L^-1 b_f, tree membership is a
    determinantal process with kernel K(e, f) = lam_e * y(e, f)
    (Burton-Pemantle).  The one exact query is the character
    E[(-1)^|T & F|] = det(L - 2 B_F W_F B_F^T) / det L = det(I - 2 K_F)
    (matrix determinant lemma), a determinant no larger than F; the
    marginal of e is (1 - E[(-1)^|T & {e}|]) / 2 = K(e, e) (Kirchhoff),
    and the law of a few edge sets is the inverse Walsh-Hadamard transform
    of the characters of their XORs (``ojoin.parity_laws``).

    The kernel works on residues.  Let Pi be the product of the weights'
    denominators over the non-loop edges and W = Pi * det L, the integer
    sum over trees T of prod_{e in T} num(lam_e) * prod_{e not in T}
    den(lam_e).  Every query value is sum_T +-w(T) / det L, so its product
    with W is an integer N with |N| <= W <= B = ceil(Pi * prod_v L_vv)
    (Hadamard, as L is positive semidefinite).  L is inverted by 2 x 2
    Schur blocks (:func:`_block_inverse`) modulo table primes that do not
    divide Pi, until the product M of the kept ones exceeds 2B; a prime is
    dropped where det L or a leading block is 0 modulo it, which is sound as
    the kept primes fix each value by Chinese remaindering.  A query's N is
    its determinant's residues times W's, lifted into (-M/2, M/2], and its
    value the Fraction N / W.  ``weight`` is W; with unit weights it is
    det L, the number of spanning trees (Kirchhoff's Matrix-Tree theorem).

    Float weights are rounded to denominators <= 10^12 first.  Weights must
    be non-negative.  Raises ValueError when the graph has no spanning tree.
    """

    def __init__(self, n: int, edges: Sequence[tuple[int, int]], lam: Sequence):
        self.edges = tuple(edges)
        self.lam = tuple(_rationalized(lam))
        if any(w < 0 for w in self.lam):
            raise ValueError("tree weights must be non-negative")
        self._ends = np.array(self.edges, dtype=np.intp).reshape(-1, 2)
        links = [(u, v, w) for (u, v), w in zip(self.edges, self.lam) if u != v]
        degree = [Fraction(0)] * n
        for u, v, w in links:
            degree[u], degree[v] = degree[u] + w, degree[v] + w
        positive, reached, size = [(u, v) for u, v, w in links if w], {0}, 0
        while size < len(reached):
            size = len(reached)
            reached.update(x for u, v in positive if u in reached or v in reached for x in (u, v))
        if len(reached) < n:
            raise ValueError("graph has no spanning tree")
        pi = prod(w.denominator for *_, w in links)
        bound = ceil(pi * prod(degree[1:]))
        fractions = np.array([(w.numerator, w.denominator) for w in self.lam], dtype=object).reshape(-1, 2).T
        candidates = (q for q in _prime_table() if pi % q)
        modulus, kept = 1, []
        while modulus <= 2 * bound:
            batch, reach = [], modulus
            for q in candidates:
                batch.append(q)
                reach *= q
                if reach > 2 * bound:
                    break
            else:
                raise ResourceCapError("tree weights need more primes than the table holds")
            p = np.array(batch, dtype=np.int64)
            num, den = (fractions[:, None] % p.astype(object)[:, None]).astype(np.int64)
            lam_p = num * _inverse_mod(den, p) % p[:, None]
            lap = _laplacian(n, self._ends, lam_p, p)
            # L^-1, padded with a zero row and column for the grounded vertex.
            inverse = np.zeros((len(p), n, n), dtype=np.int64)
            inverse[:, 1:, 1:], det = _block_inverse(lap, p)
            total = det * np.array([pi % q for q in batch], dtype=np.int64) % p
            keep = det != 0
            kept.append((p[keep], inverse[keep], lam_p[keep], total[keep]))
            modulus *= prod(batch[i] for i in np.flatnonzero(keep))
        self._p, self._inverse, self._lam, self._total = (np.concatenate(x) for x in zip(*kept))
        self._modulus = modulus
        cofactors = [(modulus // q, q) for q in self._p.tolist()]
        self._crt = np.array([c * pow(c, -1, q) for c, q in cofactors], dtype=object)
        self.weight = self._numerators(np.ones((len(self._p), 1), dtype=np.int64))[0]

    def _numerators(self, residues: np.ndarray) -> list[int]:
        """W times each query value whose residues are a column of ``residues``
        (one row per prime), lifted into (-M/2, M/2]."""
        scaled = residues * self._total[:, None] % self._p[:, None]
        out = []
        for value in scaled.T.astype(object).dot(self._crt):
            value %= self._modulus
            out.append(value - self._modulus if 2 * value > self._modulus else value)
        return out

    def _transfer(self, focus: np.ndarray) -> np.ndarray:
        """Residues of K(e, f) over each row of a (B, k) stack of focus
        edges: shape (P, B, k, k)."""
        u, v = np.moveaxis(self._ends[focus], -1, 0)
        x, p = self._inverse, self._p[:, None, None, None]
        y = x[:, u[..., None], u[..., None, :]]
        y -= x[:, u[..., None], v[..., None, :]]
        y -= x[:, v[..., None], u[..., None, :]]
        y += x[:, v[..., None], v[..., None, :]]
        y %= p
        y *= self._lam[:, focus, None]
        y %= p
        return y

    def marginals(self) -> tuple[Fraction, ...]:
        """Per-edge membership probabilities (1 - E[(-1)^|T & {e}|]) / 2,
        that is lam_e * R_eff(e); loops get 0."""
        signs = self.sign_expectations([e] for e in range(len(self.edges)))
        return tuple(Fraction(x.denominator - x.numerator, 2 * x.denominator) for x in signs)

    def sign_expectations(self, flip_sets: Iterable[Iterable[int]]) -> list[Fraction]:
        """E[(-1)^|T & F|] = det(I - 2 K_F) for each flip set F.

        The distinct sets are answered by one stacked elimination per set
        size |F| = k, with no padding.  A stack holds at most (n / k)^2
        sets, so its P * B * k^2 residues never outgrow the inverse table's
        P * n^2.
        """
        keys = [frozenset(flips) for flips in flip_sets]
        by_size: dict[int, list[frozenset[int]]] = {}
        for key in dict.fromkeys(keys):
            by_size.setdefault(len(key), []).append(key)
        signs: dict[frozenset[int], Fraction] = {}
        n = self._inverse.shape[1]
        for k, group in by_size.items():
            chunk = max(1, n * n // max(1, k * k))
            for start in range(0, len(group), chunk):
                part = group[start : start + chunk]
                focus = np.array([sorted(key) for key in part], dtype=np.intp).reshape(len(part), k)
                matrices = self._transfer(focus)
                matrices *= -2
                matrices += np.eye(k, dtype=np.int64)
                matrices %= self._p[:, None, None, None]
                for key, a in zip(part, self._numerators(_determinants(matrices, self._p))):
                    signs[key] = Fraction(a, self.weight)
        return [signs[key] for key in keys]


def tree_marginals(n: int, edges: Sequence[tuple[int, int]], lam: Sequence) -> MarginalVector:
    """Per-edge membership probabilities under the weighted tree distribution.

    Exact through :class:`TreeKernel` when all weights are ints/Fractions;
    float effective resistances otherwise.
    """
    if _is_exact(lam):
        return MarginalVector(values=TreeKernel(n, edges, lam).marginals())
    ends = np.array(edges, dtype=np.intp).reshape(-1, 2)
    laplacians = _FloatLaplacians(n, ends, np.zeros(len(ends), dtype=np.intp), 1)
    marginals = laplacians.marginals(np.array(lam, dtype=float))
    return MarginalVector(values=tuple(marginals.tolist()))


class _FloatLaplacians:
    """Float tree marginals lam_e * R_eff(e) of a stack of multigraphs on n
    vertices each, from index arrays built once per stack.

    ``ends`` holds the graphs' edges one graph after another and ``owner``
    each edge's slot in the stack.  Each call assembles every Laplacian with
    one ``np.bincount`` over the cells of ``_laplacian_entries``, slot s
    offset by s * n^2 cells, so every entry sums its terms in edge order, as
    a loop of ``+=`` and ``-=`` would.  The grounded blocks are inverted by
    one stacked ``np.linalg.inv``, which makes one LAPACK call per matrix,
    as for a single one, and padded with a zero row and column at vertex 0;
    one ``take`` reads a = L+[u, u], b = L+[v, v], c = L+[u, v] per edge, and
    R_eff = (a + b) - 2c, where a zero term drops out exactly.  Loops get 0.
    """

    def __init__(self, n: int, ends: np.ndarray, owner: np.ndarray, slots: int):
        u, v = ends.T
        offset = owner * (n * n)
        self._links, cells, self._signs = _laplacian_entries(n, ends)
        self._cells = cells + np.repeat(offset[self._links], 4)
        self._reads = np.stack([u * n + u, v * n + v, u * n + v]) + offset
        self._loops = u == v
        self._shape, self._size = (slots, n, n), slots * n * n

    def marginals(self, lam: np.ndarray) -> np.ndarray:
        shape = self._shape
        weights = np.repeat(lam[self._links], 4) * self._signs
        lap = np.bincount(self._cells, weights=weights, minlength=self._size).reshape(shape)
        padded = np.zeros(shape)
        padded[:, 1:, 1:] = np.linalg.inv(lap[:, 1:, 1:])
        a, b, c = padded.take(self._reads)
        out = lam * ((a + b) - 2.0 * c)
        out[self._loops] = 0.0
        return out


def _fit_goal(n: int, edges: Sequence[tuple[int, int]], targets: Sequence) -> list[float]:
    """The targets as floats, checked: one per edge, strictly between 0 and
    1, summing to n - 1."""
    targets = [float(t) for t in targets]
    if len(targets) != len(edges):
        raise ValueError("one target per edge required")
    if any(t <= 0 or t >= 1 for t in targets):
        raise ValueError("targets must lie strictly between 0 and 1")
    total = sum(targets)
    if abs(total - (n - 1)) > 1e-9:
        raise ValueError(f"targets sum to {total}, expected n-1 = {n - 1}")
    return targets


def _fit_stack(
    n: int, edge_lists: Sequence[Sequence[tuple[int, int]]], goals: Sequence[list[float]],
    tol: float,
) -> list:
    """The fits of one stack of non-empty problems on n vertices each, in
    order; a problem still short of ``tol`` after ``FIT_ITERATION_CAP``
    iterations gets its last error (a float) in place of a fit.  All
    problems start together, a problem leaves the stack at the iteration it
    converges, and each keeps its own error, damping and iteration count."""
    sizes = [len(edges) for edges in edge_lists]
    ends = np.array([e for edges in edge_lists for e in edges], dtype=np.intp).reshape(-1, 2)
    owner = np.repeat(np.arange(len(sizes)), sizes)
    goal = np.array([t for targets in goals for t in targets])
    lam = np.ones(len(goal))
    # Per slot of the stack: its problem, last error and damping.
    live = list(range(len(sizes)))
    previous = [float("inf")] * len(sizes)
    damping = [1.0] * len(sizes)
    damped: list[int] = []
    out: list = [None] * len(sizes)

    def layout() -> tuple[_FloatLaplacians, np.ndarray, list[slice]]:
        stops = list(accumulate(sizes[p] for p in live))
        starts = [0, *stops[:-1]]
        spans = [slice(a, b) for a, b in zip(starts, stops)]
        return _FloatLaplacians(n, ends, owner, len(live)), np.array(starts), spans

    laplacians, starts, spans = layout()
    for iterations in range(1, FIT_ITERATION_CAP + 1):
        marg = laplacians.marginals(lam)
        errors = np.maximum.reduceat(np.abs(marg - goal), starts).tolist()
        done = [s for s, error in enumerate(errors) if error <= tol]
        for s in done:
            part = lam[spans[s]]
            out[live[s]] = LambdaFit(tuple((part / part[0]).tolist()), errors[s], iterations)
        if len(done) == len(live):
            return out
        if any(map(float.__gt__, errors, previous)):
            damping = [max(0.5 * d, 1e-3) if e > p else d for e, p, d in zip(errors, previous, damping)]
            damped = [s for s, d in enumerate(damping) if d != 1.0]
        previous = errors
        ratio = goal / np.maximum(marg, 1e-300)
        for s in damped:
            ratio[spans[s]] = [r ** damping[s] for r in ratio[spans[s]].tolist()]
        lam = lam * ratio
        if done:
            keep = np.ones(len(live), dtype=bool)
            keep[done] = False
            slots = np.flatnonzero(keep).tolist()
            live, previous, damping = ([x[s] for s in slots] for x in (live, previous, damping))
            damped = [s for s, d in enumerate(damping) if d != 1.0]
            rows = keep[owner]
            owner = (np.cumsum(keep) - 1)[owner[rows]]
            ends, goal, lam = ends[rows], goal[rows], lam[rows]
            laplacians, starts, spans = layout()
    for s, p in enumerate(live):
        out[p] = previous[s]
    return out


def fit_lambdas(
    problems: Sequence[tuple[int, Sequence[tuple[int, int]], Sequence]],
    tol: float = 1e-8,
) -> list[LambdaFit]:
    """Weights whose tree marginals match the targets (multiplicatively), for
    each ``(n, edges, targets)`` problem of a stack, in order.

    Targets must lie strictly between 0 and 1 and sum to n-1 (a
    spanning-tree polytope point with no edge pinned); pinning an edge in or
    out of every tree is the caller's work (``degreecut.build_tree_levels``).
    The weights follow the update ``weight *= target / marginal`` with
    halving damping when the error oscillates, and are normalized so the
    first edge has weight 1.  A problem still short of ``tol`` after
    ``FIT_ITERATION_CAP`` iterations raises FitConvergenceError, named for
    the first such problem in stack order.

    Problems with one vertex count iterate in lockstep over one
    :class:`_FloatLaplacians` stack, and each leaves it when it converges.
    Every operation is per problem and in the order of a scalar loop over
    its edges, so each problem's weights, error and iteration count are
    those of that loop bit for bit, whatever else shares its stack.  A
    damped step raises each ratio by Python's ``**`` (libm's ``pow``):
    numpy's vectorized ``power`` need not round the same way.
    """
    goals = [_fit_goal(n, edges, targets) for n, edges, targets in problems]
    fits: list = [LambdaFit((), 0.0, 0)] * len(problems)
    stacks: dict[int, list[int]] = {}
    for i, (n, edges, _) in enumerate(problems):
        if edges:
            stacks.setdefault(n, []).append(i)
    for n, members in stacks.items():
        stack = _fit_stack(n, [problems[i][1] for i in members], [goals[i] for i in members], tol)
        for i, fit in zip(members, stack):
            fits[i] = fit
    for (n, edges, _), fit in zip(problems, fits):
        if isinstance(fit, float):
            raise FitConvergenceError(
                f"marginal fit of a {n}-vertex, {len(edges)}-edge level stalled at error "
                f"{fit:.3e} after {FIT_ITERATION_CAP} iterations",
                fit,
            )
    return fits


def fit_lambda(
    n: int,
    edges: Sequence[tuple[int, int]],
    targets: Sequence,
    tol: float = 1e-8,
) -> LambdaFit:
    """:func:`fit_lambdas` on a stack of one problem."""
    return fit_lambdas([(n, edges, targets)], tol=tol)[0]


def _walk_tables(
    n: int, edges: Sequence[tuple[int, int]], lam: Sequence, ids: Sequence[int]
) -> tuple[list, ...]:
    """The walk's flat per-vertex tables over each vertex's positive-weight
    non-loop edges: the running sums of their float weights, the total, the
    last index, the neighbours and the edge ids (from ``ids``)."""
    neighbours: list[list[int]] = [[] for _ in range(n)]
    edge_ids: list[list[int]] = [[] for _ in range(n)]
    weights: list[list[float]] = [[] for _ in range(n)]
    for idx, (u, v) in enumerate(edges):
        w = float(lam[idx])
        if u == v or w <= 0:
            continue
        for a, b in ((u, v), (v, u)):
            neighbours[a].append(b)
            edge_ids[a].append(ids[idx])
            weights[a].append(w)
    if n > 1 and not all(weights):
        raise ValueError(f"vertex {weights.index([])} has no positive-weight edge")
    sums = [np.cumsum(w).tolist() for w in weights]
    totals = [cum[-1] if cum else 0.0 for cum in sums]
    return (sums, totals, [len(cum) - 1 for cum in sums], neighbours, edge_ids)


def _walk(tables: tuple[list, ...], rng: np.random.Generator) -> list[int]:
    """Wilson's loop-erased random walks rooted at vertex 0: one spanning
    tree, weight-proportional, as the ids of its edges in walk order.

    Each step draws one uniform x, scales it by the vertex's total and takes
    the first edge whose running sum exceeds it (the last edge when rounding
    lifts the product to the total).  The uniforms come in blocks that never
    outrun the step-by-step draws: when a block runs out at vertex u, each
    vertex outside the tree that this walk has not reached must still step
    once before it joins the tree, so at least 1 + (their count) more steps
    are certain, and that is the next block's size.  The stream, the tree and
    the generator's final state are those of one ``rng.random()`` per step.
    """
    sums, totals, lasts, neighbours, ids = tables
    n = len(sums)
    in_tree = [False] * n
    in_tree[0] = True
    reached = [0] * n  # the start of the last walk that reached each vertex
    hop = [0] * n  # each vertex's last choice, as an index into its tables
    tree: list[int] = []
    block: list[float] = []
    pos = 0
    outside = n - 1
    for start in range(1, n):
        unreached = outside
        u = start
        while not in_tree[u]:
            if reached[u] != start:
                reached[u] = start
                unreached -= 1
            if pos == len(block):
                block, pos = rng.random(1 + unreached).tolist(), 0
            choice = bisect_right(sums[u], block[pos] * totals[u])
            pos += 1
            if choice > lasts[u]:
                choice = lasts[u]
            hop[u] = choice
            u = neighbours[u][choice]
        u = start
        while not in_tree[u]:
            in_tree[u] = True
            outside -= 1
            tree.append(ids[u][hop[u]])
            u = neighbours[u][hop[u]]
    return tree


@dataclass(frozen=True)
class TreeLevel:
    """One independent weighted spanning-tree law of a sampling pipeline.

    ``level_edges`` are vertex pairs over ``0..vertex_count-1``, aligned with
    ``edge_ids`` (the caller's edge ids).  ``lam_float`` drives the sampler;
    ``lam_exact`` is the rationalized weight vector every exact computation
    uses.  ``walk`` holds the sampler's tables, built once at construction,
    and ``_kernel`` the exact kernel once :meth:`kernel` has built it; both
    are left out of equality and repr, and the kernel out of pickles.
    """

    vertex_count: int
    level_edges: tuple[tuple[int, int], ...]
    edge_ids: tuple[int, ...]
    lam_float: tuple[float, ...]
    lam_exact: tuple[Fraction, ...]
    walk: tuple = field(init=False, repr=False, compare=False)
    _kernel: TreeKernel | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        tables = _walk_tables(self.vertex_count, self.level_edges, self.lam_float, self.edge_ids)
        object.__setattr__(self, "walk", tables)

    def __getstate__(self) -> dict:
        # Pool workers only sample, so the kernel's residues stay behind.
        return {**self.__dict__, "_kernel": None}

    def sample(self, rng: np.random.Generator) -> list[int]:
        """The edge ids of one sampled tree, ascending."""
        return sorted(_walk(self.walk, rng))

    def kernel(self) -> TreeKernel:
        """The exact kernel of the law under ``lam_exact``, built on first use."""
        if self._kernel is None:
            kernel = TreeKernel(self.vertex_count, self.level_edges, self.lam_exact)
            object.__setattr__(self, "_kernel", kernel)
        return self._kernel

    def sign_expectations(self, flip_sets: Sequence[Iterable[int]]) -> list[Fraction]:
        """E[(-1)^|T & F|] for each set F of edge ids, in one kernel batch;
        1, with no kernel query, for a set that misses the level."""
        position = {e: pos for pos, e in enumerate(self.edge_ids)}
        focus = [[position[e] for e in flips if e in position] for flips in flip_sets]
        asked = iter(self.kernel().sign_expectations([f for f in focus if f]) if any(focus) else ())
        return [next(asked) if f else Fraction(1) for f in focus]


class LevelProblem(NamedTuple):
    """One cut-free level to fit: vertex pairs over ``0..vertex_count-1``,
    aligned with the caller's ``edge_ids`` and the tree-marginal ``targets``."""

    vertex_count: int
    level_edges: tuple[tuple[int, int], ...]
    edge_ids: tuple[int, ...]
    targets: tuple[Fraction, ...]


def fit_levels(problems: Sequence[LevelProblem], tol: float) -> list[TreeLevel]:
    """The level of each problem whose tree marginals hit its targets: one
    :func:`fit_lambdas` stack to ``tol``, each fit rounded to denominators
    <= 10^12 for ``lam_exact``.  A fit starts from unit weights and keeps
    them when they are within ``tol``.  No kernel is built here;
    :meth:`TreeLevel.kernel` builds it on the first exact query.  Targets
    must lie strictly between 0 and 1.
    """
    fits = fit_lambdas([(p.vertex_count, p.level_edges, p.targets) for p in problems], tol=tol)
    return [
        TreeLevel(p.vertex_count, p.level_edges, p.edge_ids, fit.values, tuple(_rationalized(fit.values)))
        for p, fit in zip(problems, fits)
    ]
