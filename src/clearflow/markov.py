"""Linear-algebraic and graph kernel behind the clearing solvers.

Restriction of the proportion matrix to a bank subset, transience testing by
graph reachability, the balance solves v = e + Q_B^T v, the active-set
closure, the decomposition of nonactive banks (absorbing / transient /
swamps), and invariant distributions of swamps.

Every linear system the package solves is one balance system: for a square
matrix M with diagonal weights d (the liabilities with the total debts, or
the proportions with ones) and a transient bank set B,
(diag(d) - M^T)_B w = e, whose v = d * w solves v = e + Q_B^T v with
Q = M / d row by row. On the liabilities no proportion is divided out
before the solve. One kernel, `ZeroGroupFactor`, solves it: the exact
adjugate and determinant of D (diag(d) - M^T)_B in rational mode (D clears
the denominators, so the updates run on Python ints and only the answer is
reduced), and its inverse in float mode, updated in O(m^2) per bank that
joins or leaves B. The flow carries one factor from event to event,
fictitious defaults from round to round (where it only borders, since the
default sets only grow), and `zero_group_solve`, `fundamental_solve` and
`invariant_distribution` start a fresh one on the block they solve.
`solve_linear`, Gaussian elimination with partial pivoting, answers only a
float solve whose Schur pivot is too small.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .errors import (
    EmptySetError,
    IndexOutOfRangeError,
    NegativeInputError,
    NotErgodicError,
    SingularSystemError,
    ZeroDebtInSwampError,
)
from .network import FinancialNetwork
from .scalars import FLOAT, FLOAT_ZERO_REL, RATIONAL, Scalar, zero_one

Matrix = tuple[tuple[Scalar, ...], ...]


@dataclass(frozen=True)
class SubMatrix:
    """Restriction of a square matrix to an ordered bank subset.

    `parent` is the matrix it was taken from, shared rather than copied.
    """

    parent: Sequence[Sequence[Scalar]]
    index: tuple[int, ...]
    entries: Matrix

    @property
    def size(self) -> int:
        return len(self.index)


@dataclass(frozen=True)
class SwampDecomposition:
    """Partition of the banks induced by an active set.

    `swamps` are the closed, strongly connected groups of zero-cash indebted
    banks that owe only each other; they are the sole source of multiple
    clearing vectors. `transient` holds the remaining nonactive indebted
    banks (their flow can escape), `nonactive_absorbing` the nonactive banks
    with no debt at all.
    """

    active: frozenset[int]
    nonactive_absorbing: frozenset[int]
    transient: frozenset[int]
    swamps: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class InvariantDistribution:
    """Probability vector fixed by the transposed restriction of a swamp."""

    support: tuple[int, ...]
    weights: tuple[Scalar, ...]


def restrict(matrix: Sequence[Sequence[Scalar]], banks: Sequence[int]) -> SubMatrix:
    """Keep only the rows and columns of `banks`, preserving their order."""
    index = tuple(banks)
    if not index:
        raise EmptySetError("cannot restrict to an empty bank set")
    n = len(matrix)
    seen: set[int] = set()
    for b in index:
        if not 0 <= b < n:
            raise IndexOutOfRangeError(f"bank index {b} outside 0..{n - 1}")
        if b in seen:
            raise IndexOutOfRangeError(f"bank index {b} repeated in restriction")
        seen.add(b)
    entries = tuple(tuple(matrix[r][s] for s in index) for r in index)
    return SubMatrix(parent=matrix, index=index, entries=entries)


def is_transient(sub: SubMatrix) -> bool:
    """True iff every state of the subset can reach the outside world.

    Graph test on positive entries of the parent: a state escapes if some
    path inside the subset ends in a state with a positive entry leaving the
    subset. Equivalent to invertibility of (I - Q_B) but exact and cheap in
    both scalar modes.
    """
    inside = set(sub.index)
    exits = set()
    for r, bank in enumerate(sub.index):
        row = sub.parent[bank]
        if any(row[j] > 0 for j in range(len(row)) if j not in inside):
            exits.add(r)
    # walk the subset graph backwards from the exit-capable states
    preds: dict[int, list[int]] = {r: [] for r in range(sub.size)}
    for r in range(sub.size):
        for s in range(sub.size):
            if r != s and sub.entries[r][s] > 0:
                preds[s].append(r)
        # a positive self-entry never helps escape, so it is ignored
    reached = set(exits)
    stack = list(exits)
    while stack:
        s = stack.pop()
        for r in preds[s]:
            if r not in reached:
                reached.add(r)
                stack.append(r)
    return len(reached) == sub.size


def solve_linear(rows: list[list[Scalar]], rhs: list[Scalar]) -> list[Scalar]:
    """Solve rows @ x = rhs for a square nonsingular system by Gaussian
    elimination with partial pivoting and back substitution.

    Raises `SingularSystemError` on a zero pivot column.
    """
    m = len(rows)
    a = [[*row, r] for row, r in zip(rows, rhs)]
    for k in range(m):
        column = [abs(a[r][k]) for r in range(k, m)]
        pivot = k + column.index(max(column))
        if a[pivot][k] == 0:
            raise SingularSystemError("linear system is singular")
        a[k], a[pivot] = a[pivot], a[k]
        top = a[k]
        p = top[k]
        tail = top[k + 1:]
        for r in range(k + 1, m):
            row = a[r]
            f = row[k]
            if f:
                f /= p
                row[k + 1:] = [x - f * y for x, y in zip(row[k + 1:], tail)]
    x = [0.0] * m
    for i in range(m - 1, -1, -1):
        row = a[i]
        x[i] = (row[m] - sum(row[j] * x[j] for j in range(i + 1, m))) / row[i]
    return x


def _check_input(e: Sequence[Scalar], m: int) -> None:
    if len(e) != m:
        raise IndexOutOfRangeError(f"input vector has length {len(e)}, expected {m}")
    if any(x < 0 for x in e):
        raise NegativeInputError("input vector must be nonnegative")


def _mode_of(sub: SubMatrix) -> str:
    return FLOAT if isinstance(sub.entries[0][0], float) else RATIONAL


def _balance_solve(
    sub: SubMatrix, diagonal: Sequence[Scalar], mode: str, e: Sequence[Scalar]
) -> list[Scalar]:
    """v = d * w for (diag(d) - M^T)_B w = e, M the restriction's parent and
    B its index, after checking that e is nonnegative and B transient; a
    fresh factor solves it, its scale taken over B alone."""
    _check_input(e, sub.size)
    if not is_transient(sub):
        raise SingularSystemError("restriction is not transient; no unique solution")
    return ZeroGroupFactor(sub.parent, diagonal, mode, sub.index).solve(sub.index, e)


def fundamental_solve(sub: SubMatrix, e: Sequence[Scalar]) -> list[Scalar]:
    """Unique solution of v = e + Q_B^T v for a transient restriction.

    The input must be componentwise nonnegative; the solution then is as
    well (it is the transposed fundamental matrix applied to e).
    """
    mode = _mode_of(sub)
    _, one = zero_one(mode)
    return _balance_solve(sub, [one] * len(sub.parent), mode, e)


def zero_group_solve(
    net: FinancialNetwork, banks: Sequence[int], e: Sequence[Scalar]
) -> list[Scalar]:
    """`fundamental_solve` of the proportion matrix restricted to `banks`,
    computed from the liabilities: (diag(b) - L^T)_B w = e, then v = b * w.

    Every bank in `banks` must carry debt. Raises the same errors as
    `fundamental_solve`.
    """
    return _balance_solve(restrict(net.liabilities, banks), net.total_debt, net.mode, e)


class ZeroGroupFactor:
    """The balance solve (diag(d) - M^T)_B w = e, v = d * w, on a bank set B
    that changes a little between calls.

    M is a square matrix and d a vector, both indexed by bank. The factor
    holds, for the current ordered set B, the matrix K_B = D (diag(d) - M^T)_B:
    in rational mode D is the lcm of the denominators of d and M over
    `scope`, the banks that B is drawn from (all by default), so K_B is an
    integer matrix and the factor is the exact pair (adj K_B, det K_B); in
    float mode D = 1 and the factor is the inverse of K_B. `solve` moves it
    to a new set by deleting each leaver (Jacobi's identity) and bordering
    each joiner (Sylvester's identity), O(m^2) per bank; a fresh factor
    borders from the empty set. Every division of the exact updates is exact.

    When each d_i is the sum of row i of M, K_B is a Z-matrix whose column
    sums are D times each member's row mass outside B, so det K_B > 0
    exactly when B is transient, and every subset of a transient set is
    transient. A join whose Schur pivot is not positive therefore means the
    new set is not transient. In float mode a Schur pivot not above ε K_jj
    (ε = `FLOAT_ZERO_REL`) drops the factor instead, and that call is
    answered by the graph test and `solve_linear`.
    """

    def __init__(
        self,
        matrix: Sequence[Sequence[Scalar]],
        diagonal: Sequence[Scalar],
        mode: str,
        scope: Sequence[int] | None = None,
    ):
        self.matrix, self.diagonal = matrix, diagonal
        self.exact = mode == RATIONAL
        self.zero_rel = 0 if self.exact else FLOAT_ZERO_REL
        self.scale = 1
        if self.exact:
            scope = range(len(diagonal)) if scope is None else scope
            denominators = {diagonal[i].denominator for i in scope}
            for i in scope:
                row = matrix[i]
                denominators.update(row[j].denominator for j in scope if row[j])
            self.scale = lcm(*denominators)
        self.banks: list[int] = []
        #: adj K_B in rational mode, K_B^-1 in float mode; rows follow `banks`
        self.adj: list[list[Scalar]] = []
        self.det = 1

    def _entry(self, x: Scalar) -> Scalar:
        """D * x, an int in rational mode."""
        return x.numerator * (self.scale // x.denominator) if self.exact else x

    def _pivot(self, k: int) -> Scalar:
        """K_kk / D."""
        return self.diagonal[k] - self.matrix[k][k]

    def _reset(self) -> None:
        self.banks, self.adj, self.det = [], [], 1

    def _delete(self, p: int) -> bool:
        """Remove position p; False when a float pivot is too small."""
        adj, pivot = self.adj, self.adj[p][p]
        row_p = adj[p][:p] + adj[p][p + 1:]
        rest = [(row[:p] + row[p + 1:], row[p]) for i, row in enumerate(adj) if i != p]
        if self.exact:
            det = self.det
            self.adj = [
                [(x * pivot - f * y) // det for x, y in zip(row, row_p)] for row, f in rest
            ]
            self.det = pivot
        else:
            # the Schur pivot of position p is 1 / pivot
            if not (pivot > 0 and 1 / pivot > self.zero_rel * self._pivot(self.banks[p])):
                return False
            self.adj = [[x - f / pivot * y for x, y in zip(row, row_p)] for row, f in rest]
        del self.banks[p]
        return True

    def _border(self, k: int) -> bool:
        """Append bank k; False when a float Schur pivot is not above ε K_kk."""
        matrix, entry, adj = self.matrix, self._entry, self.adj
        # K's new column (w_k in the members' equations) and row (bank k's)
        u = [-entry(matrix[k][b]) if matrix[k][b] else 0 for b in self.banks]
        v = [-entry(matrix[b][k]) if matrix[b][k] else 0 for b in self.banks]
        d = entry(self._pivot(k))
        au = [sum(map(mul, row, u)) for row in adj]
        va = [sum(map(mul, column, v)) for column in zip(*adj)]
        if self.exact:
            det = self.det
            new_det = d * det - sum(map(mul, v, au))
            if new_det <= 0:
                self._reset()
                raise SingularSystemError("restriction is not transient; no unique solution")
            self.adj = [
                [(new_det * x + a * y) // det for x, y in zip(row, va)] + [-a]
                for row, a in zip(adj, au)
            ]
            self.adj.append([-y for y in va] + [det])
            self.det = new_det
        else:
            s = d - sum(map(mul, v, au))
            if not s > self.zero_rel * d:
                return False
            ga = [a / s for a in au]
            self.adj = [
                [x + g * y for x, y in zip(row, va)] + [-g] for row, g in zip(adj, ga)
            ]
            self.adj.append([-y / s for y in va] + [1 / s])
        self.banks.append(k)
        return True

    def solve(self, banks: Sequence[int], e: Sequence[Scalar]) -> list[Scalar]:
        """v = d * w, where (diag(d) - M^T)_B w = e for B = `banks`, distinct
        banks in any order, after moving the factor to B."""
        _check_input(e, len(banks))
        wanted, current = set(banks), set(self.banks)
        leavers = [p for p, b in enumerate(self.banks) if b not in wanted]
        joiners = [b for b in banks if b not in current]
        for p in reversed(leavers):
            if not self._delete(p):
                return self._fallback(banks, e)
        for k in joiners:
            if not self._border(k):
                return self._fallback(banks, e)
        position = {b: p for p, b in enumerate(self.banks)}
        if self.exact:
            # w = D adj e / det, with e cleared to integers over their lcm
            common = lcm(*(x.denominator for x in e))
            scaled = [0] * len(banks)
            for b, x in zip(banks, e):
                scaled[position[b]] = x.numerator * (common // x.denominator)
            total = common * self.det
            w = [Fraction(self.scale * sum(map(mul, row, scaled)), total) for row in self.adj]
        else:
            scaled = [0.0] * len(banks)
            for b, x in zip(banks, e):
                scaled[position[b]] = x
            w = [sum(map(mul, row, scaled)) for row in self.adj]
        return [self.diagonal[b] * w[position[b]] for b in banks]

    def _fallback(self, banks: Sequence[int], e: Sequence[Scalar]) -> list[Scalar]:
        """Float mode, on a small Schur pivot: drop the factor and solve from
        scratch, after the graph test."""
        self._reset()
        if not is_transient(restrict(self.matrix, banks)):
            raise SingularSystemError("restriction is not transient; no unique solution")
        rows = [
            [(self.diagonal[i] if i == j else 0) - self.matrix[j][i] for j in banks]
            for i in banks
        ]
        w = solve_linear(rows, list(e))
        return [self.diagonal[b] * x for b, x in zip(banks, w)]


def active_set(net: FinancialNetwork) -> frozenset[int]:
    """Banks that move money: positive-cash banks plus, transitively, every
    creditor of an already active debtor."""
    tol = net.zero_tol
    frontier = [i for i in range(net.n) if net.cash[i] > tol]
    active = set(frontier)
    while frontier:
        i = frontier.pop()
        for j in range(net.n):
            if j not in active and net.liabilities[i][j] > 0:
                active.add(j)
                frontier.append(j)
    return frozenset(active)


def _strongly_connected_components(nodes: list[int], edges: dict[int, list[int]]) -> list[list[int]]:
    """Iterative Tarjan over an adjacency dict; returns components as lists."""
    index_counter = 0
    stack: list[int] = []
    lowlink: dict[int, int] = {}
    index: dict[int, int] = {}
    on_stack: set[int] = set()
    components: list[list[int]] = []

    for root in nodes:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            node, edge_pos = work[-1]
            if edge_pos == 0:
                index[node] = index_counter
                lowlink[node] = index_counter
                index_counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            succs = edges.get(node, [])
            while edge_pos < len(succs):
                succ = succs[edge_pos]
                edge_pos += 1
                if succ not in index:
                    work[-1] = (node, edge_pos)
                    work.append((succ, 0))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            if lowlink[node] == index[node]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == node:
                        break
                components.append(component)
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components


def closed_classes(net: FinancialNetwork, banks: set[int]) -> list[tuple[int, ...]]:
    """Strongly connected groups within `banks` that have no debt edge leaving
    the group at all (so money can only circulate inside)."""
    nodes = sorted(banks)
    edges = {
        i: [j for j in nodes if j != i and net.liabilities[i][j] > 0]
        for i in nodes
    }
    result = []
    for comp in _strongly_connected_components(nodes, edges):
        members = set(comp)
        # closed means no debt edge from any member to anywhere outside the
        # group; indebted singletons can never be closed (no self-debt)
        closed = all(
            net.liabilities[i][j] == 0
            for i in comp
            for j in range(net.n)
            if j not in members
        )
        if closed:
            result.append(tuple(sorted(comp)))
    return result


def decompose_nonactive(net: FinancialNetwork, active: frozenset[int]) -> SwampDecomposition:
    """Split the nonactive banks into debt-free, transient, and swamps."""
    tol = net.zero_tol
    nonactive = set(range(net.n)) - set(active)
    absorbing = {i for i in nonactive if net.total_debt[i] <= tol}
    indebted = nonactive - absorbing
    swamps = [s for s in closed_classes(net, indebted) if s]
    swamp_members = {i for s in swamps for i in s}
    transient = indebted - swamp_members
    return SwampDecomposition(
        active=frozenset(active),
        nonactive_absorbing=frozenset(absorbing),
        transient=frozenset(transient),
        swamps=tuple(sorted(swamps)),
    )


def invariant_distribution(sub: SubMatrix) -> InvariantDistribution:
    """Unique probability vector pi with pi = Q_B^T pi for an ergodic restriction."""
    inside = set(sub.index)
    for bank in sub.index:
        row = sub.parent[bank]
        if any(row[j] > 0 for j in range(len(row)) if j not in inside):
            raise NotErgodicError(f"bank {bank} has flow leaving the set")
    m = sub.size
    if m > 1:
        edges = {
            r: [s for s in range(m) if s != r and sub.entries[r][s] > 0]
            for r in range(m)
        }
        comps = _strongly_connected_components(list(range(m)), edges)
        if len(comps) != 1:
            raise NotErgodicError("set is not a single communicating class")
    # with the last member's weight fixed at 1 the others form a transient
    # set fed by that member's row: one balance solve, then normalise
    *rest, last = sub.index
    mode = _mode_of(sub)
    _, one = zero_one(mode)
    raw = [one]
    if rest:
        factor = ZeroGroupFactor(sub.parent, [one] * len(sub.parent), mode, rest)
        raw = factor.solve(rest, [sub.parent[last][r] for r in rest]) + raw
    total = sum(raw)
    weights = [w / total for w in raw]
    if any(w <= 0 for w in weights):
        raise NotErgodicError("invariant distribution is not strictly positive")
    return InvariantDistribution(support=sub.index, weights=tuple(weights))


def swamp_solution(dist: InvariantDistribution, total_debt: Sequence[Scalar]) -> list[Scalar]:
    """Largest multiple of the invariant distribution that respects all debts.

    Returns m * pi over the support, where m = min_i debt_i / pi_i; at least
    one debt constraint binds, and the vector (extended by zeros) is fixed by
    the transposed proportion matrix.
    """
    debts = [total_debt[i] for i in dist.support]
    if any(b <= 0 for b in debts):
        raise ZeroDebtInSwampError("every swamp member must carry positive debt")
    m = min(b / w for b, w in zip(debts, dist.weights))
    return [m * w for w in dist.weights]
