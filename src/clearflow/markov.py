"""Linear-algebraic and graph kernel behind the clearing solvers.

Restriction of the proportion matrix to a bank subset, transience testing by
graph reachability, the balance solves v = e + Q_B^T v, the active-set
closure, the decomposition of nonactive banks (absorbing / transient /
swamps), and invariant distributions of swamps.

One elimination kernel, `solve_linear`, solves every system from scratch. On
exact input (ints and Fractions) it clears each row's denominators and runs
fraction-free Bareiss elimination on Python ints, so every update is one
exact integer division and no gcd is taken until the m quotients at the end;
the answer is the unique exact solution. On floats it runs Gaussian
elimination with partial pivoting and back substitution.

The flow and the fictitious-defaults iteration solve the balance system on a
set B of indebted banks in its column-scaled form: with w = v / b the
equations v = e + Q_B^T v become (diag(b) - L^T)_B w = e, whose entries are
the liabilities themselves, so no proportion is divided out before the
solve (`zero_group_solve`). The flow's zero group changes by about one bank
per event, so the flow solves it with a `ZeroGroupFactor` instead: the
exact adjugate and determinant (the inverse, on floats) of that matrix,
carried from event to event and updated in O(m^2) per bank that joins or
leaves. The fictitious-defaults sets arrive in large jumps and keep the
elimination kernel.
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
from .scalars import FLOAT, RATIONAL, Scalar, zero_one

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
    """Solve rows @ x = rhs for a square nonsingular system.

    Exact on ints and Fractions (fraction-free Bareiss elimination, the
    result in Fractions); Gaussian elimination with partial pivoting as soon
    as any entry is a float. Raises `SingularSystemError` on a zero pivot
    column.
    """
    if any(isinstance(x, float) for x in rhs) or any(
        isinstance(x, float) for row in rows for x in row
    ):
        return _solve_float(rows, rhs)
    return _solve_exact(rows, rhs)


def _solve_exact(rows: list[list[Scalar]], rhs: list[Scalar]) -> list[Fraction]:
    m = len(rows)
    # clear each row's denominators: an integer system with the same solution
    a = []
    for row, r in zip(rows, rhs):
        full = [*row, r]
        scale = lcm(*(x.denominator for x in full))
        a.append([x.numerator * (scale // x.denominator) for x in full])
    # Bareiss: after step k every entry is a (k+1)-minor, so the division by
    # the previous pivot is exact
    prev = 1
    for k in range(m):
        pivot = next((r for r in range(k, m) if a[r][k]), None)
        if pivot is None:
            raise SingularSystemError("linear system is singular")
        a[k], a[pivot] = a[pivot], a[k]
        top = a[k]
        p = top[k]
        tail = top[k + 1:]
        for r in range(k + 1, m):
            row = a[r]
            f = row[k]
            if f:
                row[k + 1:] = [(x * p - f * y) // prev for x, y in zip(row[k + 1:], tail)]
            elif p != prev:
                row[k + 1:] = [x * p // prev for x in row[k + 1:]]
        prev = p
    # back substitution on y = det * x, an integer vector by Cramer's rule
    det = prev
    y = [0] * m
    for i in range(m - 1, -1, -1):
        row = a[i]
        acc = det * row[m] - sum(row[j] * y[j] for j in range(i + 1, m))
        y[i] = acc // row[i]
    return [Fraction(yi, det) for yi in y]


def _solve_float(rows: list[list[Scalar]], rhs: list[Scalar]) -> list[float]:
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


def _balance_solve(
    sub: SubMatrix, diagonal: Sequence[Scalar], e: Sequence[Scalar]
) -> list[Scalar]:
    """Solve (diag(diagonal) - S^T) w = e for the restriction S, after
    checking that e is nonnegative and the restriction transient."""
    _check_input(e, sub.size)
    if not is_transient(sub):
        raise SingularSystemError("restriction is not transient; no unique solution")
    m = sub.size
    rows = [
        [(diagonal[i] if i == j else 0) - sub.entries[j][i] for j in range(m)]
        for i in range(m)
    ]
    return solve_linear(rows, list(e))


def fundamental_solve(sub: SubMatrix, e: Sequence[Scalar]) -> list[Scalar]:
    """Unique solution of v = e + Q_B^T v for a transient restriction.

    The input must be componentwise nonnegative; the solution then is as
    well (it is the transposed fundamental matrix applied to e).
    """
    return _balance_solve(sub, [1] * sub.size, e)


def zero_group_solve(
    net: FinancialNetwork, banks: Sequence[int], e: Sequence[Scalar]
) -> list[Scalar]:
    """`fundamental_solve` of the proportion matrix restricted to `banks`,
    computed from the liabilities: (diag(b) - L^T)_B w = e, then v = b * w.

    Every bank in `banks` must carry debt. Raises the same errors as
    `fundamental_solve`.
    """
    sub = restrict(net.liabilities, banks)
    debts = [net.total_debt[i] for i in sub.index]
    w = _balance_solve(sub, debts, e)
    return [b * x for b, x in zip(debts, w)]


class ZeroGroupFactor:
    """`zero_group_solve` on a bank set that changes a little between calls.

    Holds, for the current ordered set B, the matrix K_B = D (diag(b) - L^T)_B:
    in rational mode D is the lcm of the liability denominators, so K_B is an
    integer matrix and the factor is the exact pair (adj K_B, det K_B); in
    float mode D = 1 and the factor is the inverse of K_B. `solve` moves it to
    a new set by deleting each leaver (Jacobi's identity) and bordering each
    joiner (Sylvester's identity), O(m^2) per bank; a fresh factor borders
    from the empty set. Every division of the exact updates is exact.

    K_B is a Z-matrix whose column sums are D times each bank's debt outside
    B, so det K_B > 0 exactly when B is transient, and every subset of a
    transient set is transient. A zero Schur pivot on a join therefore means
    the new set is not transient. In float mode a join also runs the graph
    test, and a Schur pivot not above ε K_jj (ε = `net.zero_rel`) drops the
    factor and answers that call with `zero_group_solve`.
    """

    def __init__(self, net: FinancialNetwork):
        self.net = net
        self.exact = net.mode == RATIONAL
        self.scale = (
            lcm(*(x.denominator for row in net.liabilities for x in row if x))
            if self.exact else 1
        )
        self.banks: list[int] = []
        #: adj K_B in rational mode, K_B^-1 in float mode; rows follow `banks`
        self.adj: list[list[Scalar]] = []
        self.det = 1

    def _entry(self, x: Scalar) -> Scalar:
        """D * x, an int in rational mode."""
        return x.numerator * (self.scale // x.denominator) if self.exact else x

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
            k_pp = self.net.total_debt[self.banks[p]]
            if not (pivot > 0 and 1 / pivot > self.net.zero_rel * k_pp):
                return False
            self.adj = [[x - f / pivot * y for x, y in zip(row, row_p)] for row, f in rest]
        del self.banks[p]
        return True

    def _border(self, k: int) -> bool:
        """Append bank k; False when the Schur pivot is not above ε K_kk."""
        liab, entry, adj = self.net.liabilities, self._entry, self.adj
        # K's new column (w_k in the members' equations) and row (bank k's)
        u = [-entry(liab[k][b]) if liab[k][b] else 0 for b in self.banks]
        v = [-entry(liab[b][k]) if liab[b][k] else 0 for b in self.banks]
        d = entry(self.net.total_debt[k])
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
            if not s > self.net.zero_rel * d:
                return False
            ga = [a / s for a in au]
            self.adj = [
                [x + g * y for x, y in zip(row, va)] + [-g] for row, g in zip(adj, ga)
            ]
            self.adj.append([-y / s for y in va] + [1 / s])
        self.banks.append(k)
        return True

    def solve(self, banks: Sequence[int], e: Sequence[Scalar]) -> list[Scalar]:
        """`zero_group_solve(net, banks, e)`, after moving the factor to
        `banks`, distinct indebted banks in any order."""
        _check_input(e, len(banks))
        wanted, current = set(banks), set(self.banks)
        leavers = [p for p, b in enumerate(self.banks) if b not in wanted]
        joiners = [b for b in banks if b not in current]
        if joiners and not self.exact and not is_transient(restrict(self.net.liabilities, banks)):
            raise SingularSystemError("restriction is not transient; no unique solution")
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
        return [self.net.total_debt[b] * w[position[b]] for b in banks]

    def _fallback(self, banks: Sequence[int], e: Sequence[Scalar]) -> list[Scalar]:
        self._reset()
        return zero_group_solve(self.net, banks, e)


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
    # (I - Q_B^T) pi = 0 with the last equation replaced by sum(pi) = 1
    zero, one = zero_one(FLOAT if isinstance(sub.entries[0][0], float) else RATIONAL)
    rows = [
        [(one if r == s else zero) - sub.entries[s][r] for s in range(m)]
        for r in range(m)
    ]
    rows[m - 1] = [one] * m
    rhs = [zero] * (m - 1) + [one]
    weights = solve_linear(rows, rhs)
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
