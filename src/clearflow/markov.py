"""Linear-algebraic and graph kernel behind the clearing solvers.

Restriction of the proportion matrix to a bank subset, the in-rates Q^T p
(`in_rates`, over each paying bank's nonzero entries), the balance solves
v = e + Q_B^T v, the decomposition of the banks outside the network's
active set (absorbing / transient / swamps), and invariant distributions of
swamps.

One graph search, `_closed_groups`, finds the strongly connected groups of
a bank set that no nonzero entry leaves, the groups money can never
leave. It decides all three graph questions: a set is transient when it
holds no such group (`is_transient`), the swamps are such groups of the
liabilities (`closed_classes`), and a set is ergodic when it is one such
group (`invariant_distribution`). Every search and solve follows sparse
rows, each bank's nonzero entries (j, x) with j ascending. The swamp
search and the swamp weights of `solvers.solution_family`
(`ergodic_distribution`) walk the network's own (`FinancialNetwork.shares`).
The public block functions (`is_transient`, `fundamental_solve`,
`invariant_distribution`) take a dense restriction and form the sparse rows
of its members once from its parent, reading no other row.

Every linear system the package solves is one balance system: for a matrix
M, given by its sparse rows, with diagonal weights d (the liabilities with
the total debts, or the proportions with ones) and a transient bank set B,
(diag(d) - M^T)_B w = e, whose v = d * w solves v = e + Q_B^T v with
Q = M / d row by row. On the liabilities no proportion is divided out
before the solve. One kernel, `ZeroGroupFactor`, solves it, updated per
bank that joins or leaves B in O(m^2): in rational mode the exact
adjugate and determinant of K_B = (diag(d) - M^T)_B diag(s) (each s_j
clears the denominators of d_j and of bank j's row, so the updates run on
Python ints and only the answer is reduced), whose join products walk only
the joiner's nonzero debts with B; in float mode the LU factors of K_B,
bordered on a join by two forward substitutions, refactored on a leave by
Bennett's rank-one update, and solved by one forward and one back
substitution. A factor reads a bank's sparse
row and d entry once, the first time the bank joins, into one record (its
scaled weight, pivot and nonzero row entries) that every later step reads.
The flow carries one factor from event to event, fictitious defaults from
round to round (where it only borders, since the default sets only grow),
and `fundamental_solve` and `ergodic_distribution` start a fresh one on
the block they solve. Both modes decide a join by the sign of its Schur
pivot, which float mode recomputes as a sum of nonnegative terms when the
usual difference may have cancelled, so a solve raises
`SingularSystemError` exactly when its set is not transient, with no
separate graph test. The factor also gives the flow's and fd's in-rates,
in both modes from a carried held part, moved by `in_rates`'s kernel
`scalars.scatter`, and the banks of its last solve: in rational mode from
the solve's integers, in float mode by one more `scatter` (see
`ZeroGroupFactor.held_inflow` and `inflow`). `solve_linear`,
Gaussian elimination with partial pivoting, is kept for reference; no
solver calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count
from math import inf, lcm
from operator import itemgetter, mul
from typing import Callable, Iterable, Sequence

from .errors import (
    EmptySetError,
    IndexOutOfRangeError,
    NegativeInputError,
    NotErgodicError,
    RowSumError,
    SingularSystemError,
    ZeroDebtInSwampError,
)
from .network import FinancialNetwork
from .scalars import FLOAT, FLOAT_ZERO_REL, RATIONAL, Scalar, reduced, scatter, zero_one

Matrix = tuple[tuple[Scalar, ...], ...]
#: each bank's nonzero entries (j, x), j ascending
Rows = Sequence[Sequence[tuple[int, Scalar]]]
#: a joining bank's weight s_k d_k, pivot s_k (d_k - M_kk) and entries {i: s_k M_ki}
_Record = tuple[Scalar, Scalar, dict[int, Scalar]]


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
    """Partition of the banks induced by the network's active set.

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

    Graph test on the nonzero entries of the members' rows of the parent:
    the subset is transient exactly when it holds no closed group
    (`_closed_groups`). Equivalent to invertibility of (I - Q_B) but exact
    and cheap in both scalar modes.
    """
    return not _closed_groups(_successors(_member_rows(sub)), sub.index)


def solve_linear(rows: list[list[Scalar]], rhs: list[Scalar]) -> list[Scalar]:
    """Solve rows @ x = rhs for a square nonsingular system by Gaussian
    elimination with partial pivoting and back substitution.

    Raises `SingularSystemError` on a zero pivot column. No solver calls it:
    every balance system is a `ZeroGroupFactor` solve.
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


def _check_input(e: Sequence[Scalar], m: int, exact: bool) -> list[tuple[int, int]] | None:
    """Check that a solve's input has m entries, each finite and nonnegative.

    In rational mode return each entry's integer ratio, whose numerator
    gives its sign; only an infinite or NaN float, which has no ratio, is
    compared as it is."""
    if len(e) != m:
        raise IndexOutOfRangeError(f"input vector has length {len(e)}, expected {m}")
    if exact:
        try:
            ratios = [x.as_integer_ratio() for x in e]
        except (OverflowError, ValueError):
            pass  # a float infinity or NaN, compared below
        else:
            if any(p < 0 for p, _ in ratios):
                raise NegativeInputError("input vector must be nonnegative")
            return ratios
    if not all(x >= 0 for x in e):  # a NaN is not >= 0 either
        raise NegativeInputError("input vector must be nonnegative")
    if inf in e:
        raise NegativeInputError("input vector must be finite")
    return None


def _mode_of(sub: SubMatrix) -> str:
    return FLOAT if isinstance(sub.entries[0][0], float) else RATIONAL


def _member_rows(sub: SubMatrix) -> Rows:
    """The sparse rows of the parent's nonzero entries for the members of
    `sub`, and an empty row for every other bank, whose row is not read."""
    rows = [()] * len(sub.parent)
    for b in sub.index:
        row = sub.parent[b]
        rows[b] = tuple(zip(compress(count(), row), compress(row, row)))
    return rows


def fundamental_solve(sub: SubMatrix, e: Sequence[Scalar]) -> list[Scalar]:
    """Unique solution of v = e + Q_B^T v for a transient restriction.

    The input must be componentwise finite and nonnegative, or the solve
    raises `NegativeInputError`; the solution then is nonnegative as well
    (it is the transposed fundamental matrix applied to e). A fresh
    factor solves it on the sparse rows of B, reading no other row, and
    raises `SingularSystemError` when B is not transient. That decision
    takes the parent's rows of B to sum to one, as a proportion matrix's
    do; a row that does not (exactly in rational mode, within ε n in float
    mode, ε = `FLOAT_ZERO_REL`) raises `RowSumError` naming it.
    """
    mode = _mode_of(sub)
    zero, one = zero_one(mode)
    slack = 0 if mode == RATIONAL else FLOAT_ZERO_REL * len(sub.parent)
    rows = _member_rows(sub)
    for b in sub.index:
        total = sum([x for _, x in rows[b]], zero)
        if abs(total - one) > slack:
            raise RowSumError(f"row {b} of the parent matrix sums to {total}, not 1")
    return ZeroGroupFactor(rows, [one] * len(rows), mode).solve(sub.index, e)


class ZeroGroupFactor:
    """The balance solve (diag(d) - M^T)_B w = e, v = d * w, on a bank set B
    that changes a little between calls.

    M is given by its sparse rows, each bank's nonzero entries (i, M_ki)
    with i ascending, and d is a vector; both are indexed by bank. Each bank
    that joins gets one record, formed the first time it joins and the only
    place the factor reads M and d (`_record`): its weight s_k d_k, its
    pivot s_k (d_k - M_kk) and its nonzero row entries {i: s_k M_ki}. In
    rational mode s_k is the lcm of the denominators of d_k and of bank k's
    row, so every record holds integers; in float mode it is 1. A factor
    thus reads each joining bank's nonzero entries and debt once, and no
    other row.
    The factor holds, for the current ordered set B, the matrix K_B =
    (diag(d) - M^T)_B diag(s): column j of K_B is bank j's record, K_B is an
    integer matrix in rational mode, and the factor is the exact pair
    (adj K_B, det K_B); its entries grow with the joined rows' own
    denominators, not with those of every row. In float mode the factor is
    K_B = L U, L unit lower and U upper triangular, in the order the banks
    joined. `solve` moves it to a new set by deleting each leaver and
    bordering each joiner, O(m^2) per bank; a fresh factor borders from the
    empty set. Rational mode deletes by Jacobi's identity and borders by
    Sylvester's: a join's products adj u and v^T adj cost O(m) per nonzero
    entry of its new column u and row v, the joiner's debts with B, and
    every division is exact. Float mode borders by L y = u and U^T z = v,
    one dot product per member from the first nonzero entry of u or v on,
    and gains the row z^T of L and the column (y, s) of U; it deletes by
    Bennett's rank-one update of the trailing factor (J. M. Bennett,
    Numer. Math. 7, 1965), and it solves by one forward and one back
    substitution. It forms no inverse.

    When each d_i is the sum of row i of M, K_B is a Z-matrix whose column
    j sums to s_j times member j's row mass outside B, so det K_B > 0
    exactly when B is transient, and every subset of a transient set is
    transient. Both modes therefore decide a join by the sign of its Schur
    pivot s alone: a join with s not positive resets the factor and raises
    `SingularSystemError`. The float pivot d - z^T y = d - v^T K_B^-1 u
    subtracts a sum of nonnegative terms; when s is not above d/2 it may
    have cancelled, and s is recomputed from the column sums as r_k +
    sum_b r_b (K_B^-1 (-u))_b, with r the row masses leaving B + k, summed
    over the records' entries, and K_B^-1 u = U^-1 y by one back
    substitution (Grassmann, Taksar and Heyman, Oper. Res. 33, 1985). Every
    term is nonnegative, so s is accurate and zero exactly when the new set
    is not transient. K_B is a column diagonally dominant M-matrix, so
    every entry of L is at most 1 in size and, off the diagonal, L and U
    are not positive: a deletion's new pivots only add nonnegative terms,
    Bennett's products stay on K's scale, and no deletion resets.

    A factor of a network's liabilities and total debts also gives in-rates
    Q^T p, where p holds some banks at fixed rates (`held_inflow`, whose
    answer on B is the solve's input) and is the last solve's answer on B
    (`inflow`). Both modes carry the held part Q^T h from call to call,
    moving it by `scalars.scatter` over the rows of the banks whose held
    rate changed. The exact solve keeps w_j = s_j N_j / T as integers N
    over one T = common * det, and rational mode adds the solved part
    sum_j M_ji w_j from N and each solved bank's record entries s_j M_j:
    O(n) `Fraction`s per solve rather than O(n m). Float mode adds it by
    one `scatter` over the solved banks' rows at their solved rates, and
    sums the held part afresh when a carried in-rate may have kept a
    residue of the terms it lost (`held_inflow`).
    """

    def __init__(self, rows: Rows, diagonal: Sequence[Scalar], mode: str):
        self.rows, self.diagonal = rows, diagonal
        self.exact = mode == RATIONAL
        #: each bank's (weight, pivot, entries) from `_record`, None until it
        #: first joins
        self.records: list[_Record | None] = [None] * len(diagonal)
        self.banks: list[int] = []
        #: rational mode: adj K_B and det K_B; rows follow `banks`
        self.adj: list[list[int]] = []
        self.det = 1
        #: float mode: K_B = L U, L unit lower triangular by its rows down to
        #: the diagonal (`lower`), U upper triangular by its columns down to
        #: the diagonal (`columns`) and by its rows from it (`upper`)
        self.lower: list[list[float]] = []
        self.columns: list[list[float]] = []
        self.upper: list[list[float]] = []
        zero, _ = zero_one(mode)
        #: the held rates and their carried in-rates Q^T h; in float mode each
        #: in-rate's floor, 1/16 of its value at the last fresh sum
        self.held: dict[int, Scalar] = {}
        self.held_in = [zero] * len(diagonal)
        self.floor = [zero] * len(diagonal)
        #: the banks of the last solve since `held_in` moved and, in rational
        #: mode, its integers N with w_j = s_j N_j / T, and T
        self.solved: tuple[int, ...] = ()
        self.solution: tuple[list[int], int] | None = None
        #: in rational mode, the receivers whose held part moved since the
        #: last `inflow`, and those the last `inflow` fed from its solve
        #: (None before the first)
        self.moved: set[int] = set()
        self.fed: list[int] | None = None
        #: the receivers whose in-rate the last `inflow` may have changed
        #: from the one before; None when any may have (float mode, or the
        #: first call)
        self.touched: set[int] | None = None
        #: what the flow carries with the factor from event to event
        #: (`flow.equilibrium_rates` and `flow.step` own it)
        self.carried = None

    def _record(self, k: int) -> _Record:
        """Bank k's record (s_k d_k, s_k (d_k - M_kk), {i: s_k M_ki} over
        row k's nonzero entries in index order), formed from sparse row k
        and d_k the first time it is asked for."""
        record = self.records[k]
        if record is None:
            entries, weight = dict(self.rows[k]), self.diagonal[k]
            if self.exact:
                s = lcm(weight.denominator, *(x.denominator for x in entries.values()))
                weight = weight.numerator * (s // weight.denominator)
                entries = {i: x.numerator * (s // x.denominator) for i, x in entries.items()}
            record = self.records[k] = (weight, weight - entries.get(k, 0), entries)
        return record

    def _reset(self) -> None:
        self.banks, self.adj, self.det = [], [], 1
        self.lower, self.columns, self.upper = [], [], []

    def _delete(self, p: int) -> None:
        """Remove position p: Jacobi's identity on the exact adjugate, and
        in float mode Bennett's update of the trailing factor.

        Without row and column p, K_B's trailing block is L_TT U_TT + x y^T,
        x the deleted column of L below p and y the deleted row of U right
        of p. Bennett's update refactors it stage by stage, here one
        trailing row of L and column of U after the other. Off the diagonal
        L, U, x and y are not positive (K_B is a nonsingular M-matrix), so
        each new pivot U_jj + x_j y_j adds nonnegative terms: it cannot
        cancel, and the factor needs no reset."""
        del self.banks[p]
        if self.exact:
            adj, pivot, det = self.adj, self.adj[p][p], self.det
            row_p = adj[p][:p] + adj[p][p + 1:]
            rest = [(row[:p] + row[p + 1:], row[p]) for i, row in enumerate(adj) if i != p]
            self.adj = [
                [(x * pivot - f * y) // det for x, y in zip(row, row_p)] for row, f in rest
            ]
            self.det = pivot
            return
        lower, columns, upper = self.lower, self.columns, self.upper
        del lower[p], columns[p], upper[p]
        x = [row.pop(p) for row in lower[p:]]
        y = [column.pop(p) for column in columns[p:]]
        for i, row in enumerate(upper[:p]):
            del row[p - i]
        # each stage j's x_j, and its y_j over the updated pivot U_jj + x_j y_j
        xs: list[float] = []
        gs: list[float] = []
        for row, column, a, b in zip(lower[p:], columns[p:], x, y):
            tail = []
            for xj, g, value in zip(xs, gs, row[p:-1]):
                a -= xj * value
                tail.append(value + g * a)
            row[p:-1] = tail
            tail = []
            for xj, g, value in zip(xs, gs, column[p:-1]):
                value += xj * b
                tail.append(value)
                b -= g * value
            pivot = column[-1] + a * b
            column[p:] = [*tail, pivot]
            xs.append(a)
            gs.append(b / pivot)
        upper[p:] = [[column[i] for column in columns[i:]] for i in range(p, len(columns))]

    def _border(self, k: int) -> None:
        """Append bank k; reset and raise `SingularSystemError` when the
        Schur pivot is not positive.

        In rational mode K's new column u and row v are kept as (position,
        value) pairs of their nonzero entries, so the products walk only
        those: adj u takes the rows' entries at u's positions, and v^T adj
        adds up the rows of v's positions in ascending order. In float mode
        u and v are dense over B, and `_forward` solves L y = u and U^T z =
        v, each entry one builtin `sum` of products. Every float product and
        sum adds the same terms in the same order as the dense formulas, so
        the factor is bit for bit theirs on any interpreter; the zeros that
        a substitution skips before the first nonzero entry change no sum."""
        banks, records = self.banks, self.records
        # K's new column (w_k in the members' equations, from bank k's row),
        # its row (bank k's equation, from the members' rows) and K_kk
        _, d, entries = self._record(k)
        if self.exact:
            adj = self.adj
            u = [(p, -entries[b]) for p, b in enumerate(banks) if b in entries]
            v = [(p, -e[k]) for p, b in enumerate(banks) if k in (e := records[b][2])]
            if len(u) > 1:
                at, values = itemgetter(*[p for p, _ in u]), [c for _, c in u]
                au = [sum(map(mul, at(row), values)) for row in adj]
            elif u:  # a one-index itemgetter returns the entry, not a tuple
                [(p, c)] = u
                au = [row[p] * c for row in adj]
            else:
                au = [0] * len(adj)
            va = [0] * len(adj)
            for p, c in v:
                va = [a + y * c for a, y in zip(va, adj[p])]
            det = self.det
            s = d * det - sum([c * au[p] for p, c in v])  # det K_{B+k}
        else:
            u = [-entries[b] if b in entries else 0.0 for b in banks]
            v = [-e[k] if k in (e := records[b][2]) else 0.0 for b in banks]
            y, z = _forward(self.lower, u), _forward(self.columns, v)
            s = d - sum(map(mul, z, y))
            if not s > d / 2:
                # the same pivot from the masses leaving B + k: no term cancels
                inside = {*banks, k}
                mass = [
                    sum(x for j, x in records[b][2].items() if j not in inside)
                    for b in (*banks, k)
                ]
                s = mass[-1] - sum(map(mul, mass, _back(self.upper, y)))
        if not s > 0:
            self._reset()
            raise SingularSystemError("restriction is not transient; no unique solution")
        if self.exact:
            self.adj = [
                [(s * x + a * y) // det for x, y in zip(row, va)] + [-a]
                for row, a in zip(adj, au)
            ]
            self.adj.append([-y for y in va] + [det])
            self.det = s
        else:
            self.lower.append([*z, 1.0])
            self.columns.append([*y, s])
            for row, c in zip(self.upper, y):
                row.append(c)
            self.upper.append([s])
        banks.append(k)

    def solve(self, banks: Sequence[int], e: Sequence[Scalar]) -> list[Scalar]:
        """v = d * w, where (diag(d) - M^T)_B w = e for B = `banks`, distinct
        banks in any order, after moving the factor to B.

        In rational mode each input counts at its exact value (an int, a
        float or a `Fraction`, read by `as_integer_ratio`), and each answer
        is one `scalars.reduced` of the solve's integers. In float mode w
        is one forward substitution with L and one back substitution with
        U. An input that is negative, NaN or infinite raises
        `NegativeInputError`."""
        ratios = _check_input(e, len(banks), self.exact)
        wanted = set(banks)
        for p in reversed([p for p, b in enumerate(self.banks) if b not in wanted]):
            self._delete(p)
        current = set(self.banks)
        for k in banks:
            if k not in current:
                self._border(k)
        position = {b: p for p, b in enumerate(self.banks)}
        records = self.records
        if self.exact:
            # w_b = s_b (adj e)_b / det, with e cleared to integers over their lcm
            common = lcm(*(q for _, q in ratios))
            scaled = [0] * len(banks)
            for b, (x, q) in zip(banks, ratios):
                scaled[position[b]] = x * (common // q)
            total = common * self.det
            numerators = [sum(map(mul, row, scaled)) for row in self.adj]
            self.solved, self.solution = tuple(self.banks), (numerators, total)
            # v_b = s_b d_b N_b / T, the record's integer weight s_b d_b
            return [reduced(records[b][0] * numerators[position[b]], total) for b in banks]
        scaled = [0.0] * len(banks)
        for b, x in zip(banks, e):
            scaled[position[b]] = x
        w = _back(self.upper, _forward(self.lower, scaled))
        self.solved = tuple(banks)
        return [records[b][0] * w[position[b]] for b in banks]

    def held_inflow(
        self,
        net: FinancialNetwork,
        banks: Iterable[int],
        rates: Sequence[Scalar],
        receivers: Sequence[int],
    ) -> list[Scalar]:
        """For a factor of the network's liabilities and total debts: the
        in-rates of `receivers` from the held vector h, `rates` on `banks`
        and 0 elsewhere.

        The factor carries Q^T h from the last call and moves it by the rows
        (`net.shares`) of the banks whose held rate changed, in one
        `scalars.scatter`: a bank leaving the held set adds its row at the
        negated rate, so it costs one sparse row. In rational mode that is
        exact. In float mode a receiver that loses most of its in-rate
        would keep a residue of the terms it lost, so the held part is
        summed afresh by `in_rates`, over the held banks in index order,
        when a receiver of a falling rate's row ends below 1/16 of its
        in-rate at the last fresh sum (its floor) or below 0; also when a
        held rate rises, and when more banks changed than stay held, since
        the fresh sum then reads fewer rows. Either way the next `inflow`
        starts from this h."""
        self.solved = ()
        held = {j: rates[j] for j in banks if rates[j]}
        old, self.held = self.held, held
        # a joining bank adds its row at its rate; a rate held on is mostly
        # the same object (`zero_one`'s 1, a cap), and identity settles it
        # before the values are read
        change: dict[int, Scalar] = {j: held[j] for j in held.keys() - old.keys()}
        if not self.exact:
            for j, rate in old.items():
                if (now := held.get(j)) is not rate and now != rate:
                    change[j] = -rate if now is None else now - rate
            if change and not self._carry_falls(net.shares, change):
                self.held_in = in_rates(net, sorted(held), rates)
                self.floor = [x * 0.0625 for x in self.held_in]
            return [self.held_in[i] for i in receivers]
        for j, rate in old.items():
            if (now := held.get(j)) is not rate:
                # equal rates have equal integer ratios
                a, b = rate.as_integer_ratio()
                if now is None:
                    change[j] = reduced(-a, b)
                else:
                    c, d = now.as_integer_ratio()
                    if c != a or d != b:
                        change[j] = reduced(c * b - a * d, b * d)
        if change:
            self.moved.update(scatter(self.held_in, net.shares, change, change))
        return [self.held_in[i] for i in receivers]

    def _carry_falls(self, shares: Rows, change: dict[int, float]) -> bool:
        """Float mode: when every changed held rate fell, and no more banks
        changed than stay held, move `held_in` by their rows and tell whether
        each receiver of those rows stayed at or above its floor; else False
        at once."""
        if max(change.values()) > 0 or len(change) > len(self.held):
            return False
        held_in, floor = self.held_in, self.floor
        scatter(held_in, shares, change, change)
        return all(held_in[i] >= floor[i] for j in change for i, _ in shares[j])

    def inflow(self, net: FinancialNetwork, rates: Sequence[Scalar]) -> list[Scalar]:
        """Q^T p for p = `rates`, which must be the held vector of the last
        `held_inflow` with the answer of any solve since then on its banks.

        Both modes add the solved banks' part to the carried Q^T h. Float
        mode adds it in one `scalars.scatter` over their rows (`net.shares`)
        at their solved rates, in the order of the solve's banks. Rational
        mode adds sum_j M_ji w_j = sum_j (s_j M_ji) N_j / T: one integer dot
        product over the solved banks' record entries, and one
        `scalars.reduced` per receiver.

        Rational mode also leaves in `touched` the receivers whose in-rate
        may differ from the last call's: those whose held part moved, and
        those either call fed from its solve. Float mode leaves None there,
        so the flow moves every bank at every event, as the plain update
        x + r t did; its in-rates change on nearly every bank of a dense
        network anyway."""
        inflow = list(self.held_in)
        if not self.exact:
            scatter(inflow, net.shares, self.solved, rates)
            return inflow
        fed: list[int] = []
        touched, self.moved = self.moved, set()
        if self.fed is not None:
            touched.update(self.fed)
            self.touched = touched
        self.fed = fed
        if not self.solved:
            return inflow
        numerators, total = self.solution
        records = self.records
        received = [0] * net.n
        for j, x in zip(self.solved, numerators):
            if x:
                for i, a in records[j][2].items():
                    received[i] += a * x
        for i, a in enumerate(received):
            if a:
                p, q = inflow[i].as_integer_ratio()
                inflow[i] = reduced(p * total + a * q, q * total)
                fed.append(i)
        touched.update(fed)
        return inflow


def _forward(rows: list[list[float]], b: list[float]) -> list[float]:
    """x with T x = b, T lower triangular by its rows down to the diagonal
    (L's rows, or U's columns for U^T): one dot product per row. x is 0
    before b's first nonzero entry, and each product starts there."""
    f = next((i for i, c in enumerate(b) if c), len(b))
    tail: list[float] = []
    for row, c in zip(rows[f:], b[f:]):
        tail.append((c - sum(map(mul, row[f:] if f else row, tail))) / row[-1])
    return [0.0] * f + tail


def _back(upper: list[list[float]], t: list[float]) -> list[float]:
    """x with U x = t, U upper triangular by its rows from the diagonal:
    from the last row up, each row's entries from its far end."""
    x: list[float] = []
    for row, c in zip(reversed(upper), reversed(t)):
        x.append((c - sum(map(mul, reversed(row), x))) / row[0])
    x.reverse()
    return x


def in_rates(
    net: FinancialNetwork, banks: Iterable[int], rates: Sequence[Scalar]
) -> list[Scalar]:
    """Q^T p for p = `rates` on `banks` and 0 elsewhere: the Q^T p kernel
    `scalars.scatter` over each paying bank's nonzero proportion entries
    (`net.shares`). In float mode each in-rate sums its terms in the order
    of `banks`; in rational mode each is one `Fraction` formed from
    integers."""
    zero, _ = zero_one(net.mode)
    inflow = [zero] * net.n
    scatter(inflow, net.shares, banks, rates)
    return inflow


def active_set(net: FinancialNetwork) -> frozenset[int]:
    """The banks that move money, `FinancialNetwork.active`."""
    return net.active


def _successors(rows: Rows) -> Callable[[int], list[int]]:
    """Successors by the off-diagonal entries of sparse `rows`."""
    return lambda i: [j for j, _ in rows[i] if j != i]


def _closed_groups(
    successors: Callable[[int], Iterable[int]], banks: Iterable[int]
) -> list[tuple[int, ...]]:
    """The strongly connected groups of `banks`, linked by `successors` (the
    banks that bank i's nonzero off-diagonal entries point to), that no
    link leaves: the groups money can never leave. Sorted tuples, in the
    order an iterative Tarjan search over the sorted banks completes them.

    A self-entry neither links nor leaves, so a bank whose only entry is its
    own (a debt-free bank of `shares`) is a group.
    """
    nodes = sorted(banks)
    inside = set(nodes)
    targets = {i: successors(i) for i in nodes}
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    work: list = []
    groups = []

    def visit(node: int) -> None:
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        work.append((node, (j for j in targets[node] if j in inside)))

    for root in nodes:
        if root in index:
            continue
        visit(root)
        while work:
            node, successors = work[-1]
            for succ in successors:
                if succ not in index:
                    visit(succ)
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    k = stack.index(node)
                    members = set(stack[k:])
                    del stack[k:]
                    on_stack -= members
                    if all(j in members for i in members for j in targets[i]):
                        groups.append(tuple(sorted(members)))
    return groups


def closed_classes(net: FinancialNetwork, banks: set[int]) -> list[tuple[int, ...]]:
    """Strongly connected groups within `banks` that have no debt edge leaving
    the group at all (so money can only circulate inside); indebted
    singletons can never be closed (no self-debt)."""
    return _closed_groups(_successors(net.shares), banks)


def decompose_nonactive(net: FinancialNetwork) -> SwampDecomposition:
    """Split the nonactive banks into debt-free, transient, and swamps."""
    tol, active = net.zero_tol, net.active
    nonactive = set(range(net.n)) - active
    absorbing = {i for i in nonactive if net.total_debt[i] <= tol}
    indebted = nonactive - absorbing
    swamps = closed_classes(net, indebted)
    swamp_members = {i for s in swamps for i in s}
    transient = indebted - swamp_members
    return SwampDecomposition(
        active=active,
        nonactive_absorbing=frozenset(absorbing),
        transient=frozenset(transient),
        swamps=tuple(sorted(swamps)),
    )


def invariant_distribution(sub: SubMatrix) -> InvariantDistribution:
    """Unique probability vector pi with pi = Q_B^T pi for an ergodic restriction:
    one closed group that is the whole support."""
    return ergodic_distribution(_member_rows(sub), sub.index, _mode_of(sub))


def ergodic_distribution(rows: Rows, support: tuple[int, ...], mode: str) -> InvariantDistribution:
    """`invariant_distribution` of the banks of `support`, on the sparse rows
    of a proportion matrix; only the rows of `support` are read."""
    groups = _closed_groups(_successors(rows), support)
    if not groups:
        # a transient set: some member has an entry leaving it
        bank = next(b for b in support if any(j not in support for j, _ in rows[b]))
        raise NotErgodicError(f"bank {bank} has flow leaving the set")
    if len(groups) > 1 or len(groups[0]) < len(support):
        raise NotErgodicError("set is not a single communicating class")
    # with the last member's weight fixed at 1 the others form a transient
    # set fed by that member's row: one balance solve, then normalise
    *rest, last = support
    zero, one = zero_one(mode)
    raw = [one]
    if rest:
        factor = ZeroGroupFactor(rows, [one] * len(rows), mode)
        feed = dict(rows[last])
        raw = factor.solve(rest, [feed.get(r, zero) for r in rest]) + raw
    total = sum(raw)
    weights = [w / total for w in raw]
    if any(w <= 0 for w in weights):
        raise NotErgodicError("invariant distribution is not strictly positive")
    return InvariantDistribution(support=support, weights=tuple(weights))


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
