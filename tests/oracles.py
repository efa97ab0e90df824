"""Independent test oracles.

`gauss_jordan_solve` is plain Gauss-Jordan elimination over the entries' own
type, with partial pivoting: on Fractions it pays a gcd on every operation,
which is why the library solves with an integer adjugate instead, and it is
the reference the library's kernel must match exactly.

The seed-cash probe resolves the time-zero classification without the
combinatorial algorithm: give every active cashless bank a tiny amount of
cash, run the flow, and watch which of them drain right back to zero during
the opening cascade. Banks that keep or grow their seed are the ones the
exact algorithm must reveal as positive.

The readout is scale-based, so it is validated by rerunning with a much
smaller seed; if the two runs disagree the seed was not small enough and
both shrink. Exact rational arithmetic makes the comparison bit-precise.

`least_injection` is the least bailout read straight off the liabilities:
a bank that every debtor pays in full receives its column sum, so it needs
max(0, b - c - L^T 1) on top of its cash, and no less.

`dense_proportions` derives total debts and proportions the plain way, with
every entry of every row summed and divided, zeros included.
`dense_balance_rates` is the Q^T p kernel over every cell of the dense
proportion rows, zeros skipped, in the order the library's sparse rows keep.

`dense_fixed_point` is the fictitious-defaults loop written plainly:
every round's in-rates by `dense_balance_rates` and every solve by
`gauss_jordan_solve` on I - Q_S^T, with no factor and nothing carried from
round to round.

`dense_matrix` builds the dense matrix of a network's or a factor's sparse
rows, with a zero in every gap. `dense_border` is one join of the balance
factor by the dense formulas, on that matrix: the new column u and row v
with a zero in every gap, each rational column
scaled by its own bank's `row_scale` (the lcm of its row's denominators,
over the dense row); in rational mode adj u row by row and v^T adj column
by column over the transposed adjugate, in float mode the bordered LU's
substitutions on dense triangular factors, with the Schur pivot
recomputed from whole-row column sums when it may have cancelled. Its
float products use `dot`, the kernel's own reduction, so the two agree on
any interpreter. It is the reference the factor's sparse bordering must
match bit for bit.

`prime_denominator_network` gives every debt its own prime denominator
above 10^6, from the segment sieve `primes_from`: the input on which one
scale over every row makes the factor's integers grow with the whole
network. `exact_form` compares Fractions as `repr` does, past the 4300
digits that `repr` prints.

`eager_run_flow` is the flow with event-by-event bookkeeping: at every
event each bank that moves money is advanced by t', each paying and
draining bank's amount is tested, and all of the cash is summed. The rates
come from `flow.equilibrium_rates` on a carried factor, as in `run_flow`,
but the out-rates other than the zero group's solve and every balance are
formed afresh. It is the reference for the flow's anchored amounts, which
move only the banks whose rates changed.

`reachability_transient` is the transience test walked backwards from the
states with an exit: every state must reach one.

`dense_generate_network` is the seeded generator as a dense matrix: every
cell of an n×n list of `Fraction`s, handed to `build_network`, which reads
and checks all n² of them. It makes the library generator's draws in the
same order, and is the reference its sparse entries must match.

`flow_bailout` is the same closed-form plan with both clearing runs made by
the continuous flow on networks built from scratch, the route the library
took before it ran them on fictitious defaults.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from operator import mul

import clearflow as cf
from clearflow.errors import SingularSystemError, VerificationFailedError
from clearflow.generate import _DENOMINATORS
from clearflow.markov import ZeroGroupFactor
from clearflow.scalars import RATIONAL, to_scalar, zero_one


def gauss_jordan_solve(rows: list[list], rhs: list) -> list:
    """Solve rows @ x = rhs by eliminating below and above every pivot."""
    m = len(rows)
    a = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(m):
        pivot = max(range(col, m), key=lambda r: abs(a[r][col]))
        if a[pivot][col] == 0:
            raise SingularSystemError("linear system is singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv = a[col][col]
        for r in range(m):
            if r == col or a[r][col] == 0:
                continue
            factor = a[r][col] / inv
            for c in range(col, m + 1):
                a[r][c] -= factor * a[col][c]
    return [a[i][m] / a[i][i] for i in range(m)]


def exact_form(values) -> list:
    """What `repr` shows of each number (type, numerator, denominator), also
    past the 4300 digits that `repr` prints of an int."""
    return [(type(x), x.numerator, x.denominator) for x in values]


def primes_from(start: int, count: int) -> list[int]:
    """The first `count` primes above `start`, by a sieve of the segment
    (start, start + width] with the primes up to its square root."""
    width = 64 * count + 1000
    small = [p for p in range(2, math.isqrt(start + width) + 1)
             if all(p % d for d in range(2, math.isqrt(p) + 1))]
    composite = bytearray(width + 1)
    for p in small:
        for m in range(max(p * p, (start + p) // p * p), start + width + 1, p):
            composite[m - start] = 1
    return [start + k for k in range(1, width + 1) if not composite[k]][:count]


def prime_denominator_network(seed: int, n: int) -> cf.FinancialNetwork:
    """`generate_network(seed, n, 0.3, "1/4")` with 1/p added to each
    nonzero debt, each debt its own prime p above 10^6: the rows share no
    denominator, so one scale over every row would be their product."""
    base = cf.generate_network(seed, n, 0.3, "1/4")
    cells = [(i, j) for i in range(n) for j in range(n) if base.liabilities[i][j]]
    primes = iter(primes_from(10**6 + 10**4 * seed, len(cells)))
    debts = [list(row) for row in base.liabilities]
    for i, j in cells:
        debts[i][j] += Fraction(1, next(primes))
    return cf.build_network(debts, base.cash)


def row_scale(matrix, diagonal, j: int) -> int:
    """s_j, the least positive integer that makes d_j and every entry of row
    j of M integers: the lcm of their denominators, over the dense row."""
    return math.lcm(*(Fraction(x).denominator for x in (diagonal[j], *matrix[j])))


def dense_matrix(rows, zero) -> list[list]:
    """The n×n matrix whose row i holds the entries (j, x) of `rows[i]` and
    `zero` in every other cell."""
    dense = [[zero] * len(rows) for _ in rows]
    for row, entries in zip(dense, rows):
        for j, x in entries:
            row[j] = x
    return dense


def dot(xs, ys):
    """The kernel's dot reduction: builtin `sum` over the products, in
    order. Adding the same products in the same order through the same
    `sum` gives the same bits on any interpreter, whatever `sum` does with
    floats, and a product with a zero changes no sum."""
    return sum(map(mul, xs, ys))


def dense_border(factor, k: int):
    """What a `markov.ZeroGroupFactor` holds after bank k joins it, or None
    when the join's Schur pivot is not positive: (adj, det) in rational
    mode, and in float mode (lower, columns), L's rows with their unit
    diagonal and U's columns down to the diagonal.

    K_{B+k} = (diag(d) - M^T)_{B+k} diag(s), each column j scaled by
    `row_scale` s_j in rational mode (1 in float mode), gains the column u
    (K's entries in the members' rows, -s_k M_kb) and the row v (bank k's,
    -s_b M_bk), kept dense. Rational mode: det' = d det - v^T adj u and
    the integer Sylvester update. Float mode: the bordered LU, on dense
    L and U with a zero in every gap. L y = u and U^T z = v by forward
    substitution, row by row, and the pivot d - z^T y, recomputed from the
    masses leaving B + k when it is not above d / 2 with K^-1 u = U^-1 y by
    back substitution, from the last row up and each row from its far end.
    Every product is summed by `dot`. M is the dense matrix of the
    factor's sparse rows."""
    matrix = dense_matrix(factor.rows, Fraction(0) if factor.exact else 0.0)
    banks = factor.banks

    def entry(x, j):
        return int(x * row_scale(matrix, factor.diagonal, j)) if factor.exact else x

    zero = 0 if factor.exact else 0.0
    u = [-entry(matrix[k][b], k) if matrix[k][b] else zero for b in banks]
    v = [-entry(matrix[b][k], b) if matrix[b][k] else zero for b in banks]
    d = entry(factor.diagonal[k] - matrix[k][k], k)
    if factor.exact:
        adj, det = factor.adj, factor.det
        au = [sum(map(mul, row, u)) for row in adj]
        va = [sum(map(mul, column, v)) for column in zip(*adj)]
        s = d * det - sum(map(mul, v, au))
        if not s > 0:
            return None
        grown = [
            [(s * x + a * y) // det for x, y in zip(row, va)] + [-a]
            for row, a in zip(adj, au)
        ]
        return grown + [[-y for y in va] + [det]], s
    m = len(banks)
    lower = [row[:-1] + [1.0] + [0.0] * (m - i - 1) for i, row in enumerate(factor.lower)]
    upper = [[0.0] * m for _ in range(m)]
    for j, column in enumerate(factor.columns):
        for i, x in enumerate(column):
            upper[i][j] = x
    y, z = [], []
    for i in range(m):
        y.append(u[i] - dot(lower[i][:i], y))
        z.append((v[i] - dot([upper[t][i] for t in range(i)], z)) / upper[i][i])
    s = d - dot(z, y)
    if not s > d / 2:
        inside = {*banks, k}
        mass = [
            sum(x for j, x in enumerate(matrix[b]) if j not in inside) for b in (*banks, k)
        ]
        x = [0.0] * m
        for i in reversed(range(m)):
            far = range(m - 1, i, -1)
            x[i] = (y[i] - dot([upper[i][t] for t in far], [x[t] for t in far])) / upper[i][i]
        s = mass[-1] - dot(mass, x)
    if not s > 0:
        return None
    return [*factor.lower, [*z, 1.0]], [*factor.columns, [*y, s]]


def reachability_transient(sub) -> bool:
    """True iff every state of the restriction reaches a state with a
    positive entry of the parent leaving the subset, along positive
    off-diagonal entries inside it."""
    inside = set(sub.index)
    exits = set()
    for r, bank in enumerate(sub.index):
        row = sub.parent[bank]
        if any(row[j] > 0 for j in range(len(row)) if j not in inside):
            exits.add(r)
    preds: dict[int, list[int]] = {r: [] for r in range(sub.size)}
    for r in range(sub.size):
        for s in range(sub.size):
            if r != s and sub.entries[r][s] > 0:
                preds[s].append(r)
    reached = set(exits)
    stack = list(exits)
    while stack:
        s = stack.pop()
        for r in preds[s]:
            if r not in reached:
                reached.add(r)
                stack.append(r)
    return len(reached) == sub.size


def least_injection(net: cf.FinancialNetwork) -> tuple[Fraction, ...]:
    """max(0, b - c - L^T 1) per bank, exact."""
    assert net.mode == cf.RATIONAL, "the least-injection oracle runs exact"
    owed = [sum((row[i] for row in net.liabilities), Fraction(0)) for i in range(net.n)]
    return tuple(
        max(Fraction(0), net.total_debt[i] - net.cash[i] - owed[i]) for i in range(net.n)
    )


def dense_generate_network(seed, n, density, cash_scale=1, mode=RATIONAL) -> cf.FinancialNetwork:
    """`generate_network` over the dense n×n matrix, every cell built and checked."""
    scale = to_scalar(cash_scale, RATIONAL)
    rng = random.Random(seed)
    zero = Fraction(0)
    liabilities = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if rng.random() < density:
                liabilities[i][j] = Fraction(rng.randint(1, 8), rng.choice(_DENOMINATORS))
    cash = [scale * Fraction(rng.randint(0, 8), 8) for _ in range(n)]
    return cf.build_network(liabilities, cash, mode=mode)


def dense_proportions(net: cf.FinancialNetwork) -> tuple[tuple, tuple]:
    """(relative, total_debt) from the liabilities, no entry skipped."""
    zero, one = zero_one(net.mode)
    total = tuple(sum(row, zero) for row in net.liabilities)
    relative = []
    for i, row in enumerate(net.liabilities):
        if total[i] > 0:
            relative.append(tuple(x / total[i] for x in row))
        else:
            relative.append(tuple(one if j == i else zero for j in range(net.n)))
    return tuple(relative), total


def dense_balance_rates(net: cf.FinancialNetwork, out) -> tuple:
    """In-rates Q^T out, scanning all n cells of each paying row of `relative`."""
    zero, _ = zero_one(net.mode)
    inflow = [zero] * net.n
    for j, rate in enumerate(out):
        if rate:
            for i, q in enumerate(net.relative[j]):
                if q:
                    inflow[i] += rate * q
    return tuple(inflow)


def dense_fixed_point(net: cf.FinancialNetwork, banks, base, cap, held, tol) -> tuple:
    """(iterates, default sets, solves) of the greatest fixed point of
    x = min(cap, base + Q^T x) on `banks`, every other bank held at `held`:
    start at the caps, clamp, solve x = base + Q^T x on the short set with
    the rest at their start, until the short set stops growing."""
    zero, one = zero_one(net.mode)
    start = list(held)
    for i in banks:
        start[i] = cap[i]
    iterates, short_sets, solves = [tuple(start)], [], []
    x, previous = start, frozenset()
    while True:
        received = dense_balance_rates(net, x)
        x = list(held)
        for i in banks:
            x[i] = min(base[i] + received[i], cap[i])
        short = frozenset(i for i in banks if x[i] < cap[i] - tol)
        iterates.append(tuple(x))
        short_sets.append(short)
        if short == previous:
            return tuple(iterates), tuple(short_sets), tuple(solves)
        previous = short
        fed = [zero if i in short else start[i] for i in range(net.n)]
        inflow = dense_balance_rates(net, fed)
        members = sorted(short)
        e = [base[i] + inflow[i] for i in members]
        rows = [
            [(one if r == c else zero) - net.relative[c][r] for c in members]
            for r in members
        ]
        r = gauss_jordan_solve(rows, e)
        solves.append((tuple(members), tuple(e), tuple(r)))
        x = list(start)
        for i, value in zip(members, r):
            x[i] = value


def eager_run_flow(net: cf.FinancialNetwork) -> cf.ClearingResult:
    """`flow.run_flow` with every amount moved at every event.

    Each event advances the debt and payment of every bank with a nonzero
    out-rate and the cash of every bank with a nonzero balance, by x + r t
    in index order, and checks conservation on the sum of all of the cash.
    t' is the least of the paying banks' times to a debt of 0 and the
    draining banks' times to a cash of 0 (0 when past); a paying bank whose
    debt is then within `zero_tol` is absorbed, and a draining one whose
    cash is, emptied."""
    zero, one = zero_one(net.mode)
    eps, tol = net.zero_rel, net.zero_tol
    partition, _ = cf.big_bang_partition(net)
    time, debt, cash, paid = zero, list(net.total_debt), list(net.cash), [zero] * net.n
    factor = ZeroGroupFactor(net.debts, net.total_debt, net.mode)
    events = []
    while partition.positive:
        rates = cf.equilibrium_rates(net, partition, factor)
        solved = partition.zero & net.active
        out = tuple(
            one if s is cf.Status.POSITIVE else rates.out[i] if i in solved else zero
            for i, s in enumerate(partition.statuses)
        )
        balance = tuple(x - r if r else x for x, r in zip(rates.inflow, out))
        paying = [
            i for i, s in enumerate(partition.statuses)
            if s is cf.Status.POSITIVE or s is cf.Status.ZERO and out[i] > eps
        ]
        draining = [i for i in paying if partition.statuses[i] is cf.Status.POSITIVE
                    and balance[i] < -eps]
        times = [debt[i] / out[i] for i in paying]
        times += [t if (t := -cash[i] / balance[i]) > 0 else zero for i in draining]
        t_prime = min(times)
        time = time + t_prime
        for i in range(net.n):
            if out[i]:
                debt[i] = debt[i] + out[i] * -t_prime
                paid[i] = paid[i] + out[i] * t_prime
            if balance[i]:
                cash[i] = cash[i] + balance[i] * t_prime
        absorbed = [i for i in paying if debt[i] <= tol]
        emptied = [i for i in draining if cash[i] <= tol and i not in absorbed]
        assert all(debt[i] >= -tol for i in paying) and all(cash[i] >= -tol for i in draining)
        assert absorbed == [] or t_prime > 0
        bound = 1000 * net.zero_rel * max(1, net.total_cash)
        assert abs(sum(cash) - net.total_cash) <= bound
        statuses = list(partition.statuses)
        for i in absorbed:
            statuses[i] = cf.Status.ABSORBING
            debt[i], paid[i] = zero, net.total_debt[i]
        for i in emptied:
            statuses[i] = cf.Status.ZERO
        movers = tuple(sorted(absorbed + emptied))
        after = cf.Partition(tuple(statuses))
        state = cf.SystemState(time, after, tuple(debt), tuple(cash), tuple(paid))
        events.append(cf.FlowEvent(
            index=len(events),
            time=time,
            movers=movers,
            transitions=tuple(
                cf.Transition(i, partition.statuses[i], statuses[i]) for i in movers
            ),
            rates=cf.IntervalRates(out=out, inflow=rates.inflow, balance=balance),
            state_after=state,
        ))
        partition = after
    return cf.ClearingResult(
        payments=tuple(paid),
        final_partition=partition,
        defaults=frozenset(partition.zero),
        total_time=time,
        final_cash=tuple(cash),
        trajectory=tuple(events),
        algorithm="flow",
    )


def flow_bailout(net: cf.FinancialNetwork) -> cf.BailoutPlan:
    """x* = max(0, b - c - Q^T b) for each flow defaulter, checked by a replay
    of the flow on the network rebuilt with x* added to the cash."""
    base = cf.run_flow(net, record_trajectory=False)
    zero, _ = zero_one(net.mode)
    defaults = sorted(base.defaults)
    unpaid = [zero] * net.n
    for i in defaults:
        unpaid[i] = net.total_debt[i] - base.payments[i]
    if not defaults:
        return cf.BailoutPlan(tuple(unpaid), tuple(unpaid), True, ())
    received = cf.balance_rates(net, net.total_debt)
    injections = [zero] * net.n
    boosted_cash = list(net.cash)
    for i in defaults:
        injections[i] = max(net.total_debt[i] - net.cash[i] - received[i], zero)
        boosted_cash[i] += injections[i]
    boosted = cf.build_network(net.liabilities, boosted_cash, mode=net.mode, ids=net.ids)
    replay = cf.run_flow(boosted, record_trajectory=False)
    seed_required = cf.decompose_nonactive(boosted).swamps
    seeded = {i for swamp in seed_required for i in swamp}
    tol = net.zero_tol
    if any(
        net.total_debt[i] - replay.payments[i] > tol
        for i in range(net.n)
        if i not in seeded
    ) or any(replay.final_cash[i] > tol for i in defaults if injections[i] > tol):
        raise VerificationFailedError("flow replay did not verify")
    return cf.BailoutPlan(tuple(unpaid), tuple(injections), True, seed_required)


def probe_revealed(net: cf.FinancialNetwork, retries: int = 4) -> frozenset[int]:
    """Active zero-cash banks that a vanishing cash seed reveals as positive."""
    assert net.mode == cf.RATIONAL, "the probe oracle runs exact"
    part = cf.initial_partition(net)
    act = cf.active_set(net)
    endowed = sorted(set(part.zero) & set(act))
    if not endowed:
        return frozenset()
    positives = [x for row in net.liabilities for x in row if x > 0]
    positives += [c for c in net.cash if c > 0]
    minpos = min(positives) if positives else Fraction(1)
    eps = minpos * Fraction(1, 2**30)
    for _ in range(retries):
        first = _drained(net, endowed, eps)
        second = _drained(net, endowed, eps * Fraction(1, 2**20))
        if first == second:
            return frozenset(endowed) - first
        eps *= Fraction(1, 2**40)
    raise AssertionError("probe readout did not stabilize; seed not separable")


def _drained(net: cf.FinancialNetwork, endowed: list[int], eps: Fraction) -> set[int]:
    """Endowed banks whose cash returns to zero during the opening cascade.

    The cascade is the maximal initial run of events consisting purely of
    endowed banks dropping from positive to zero; the first event of any
    other kind ends it.
    """
    cash = list(net.cash)
    for i in endowed:
        cash[i] = cash[i] + eps
    probe = cf.build_network(net.liabilities, cash, mode=net.mode, ids=net.ids)
    result = cf.run_flow(probe)
    endowed_set = set(endowed)
    drained: set[int] = set()
    for event in result.trajectory:
        if all(
            t.bank in endowed_set
            and t.before is cf.Status.POSITIVE
            and t.after is cf.Status.ZERO
            for t in event.transitions
        ):
            drained.update(t.bank for t in event.transitions)
            continue
        break
    return drained
