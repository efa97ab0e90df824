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

`flow_bailout` is the same closed-form plan with both clearing runs made by
the continuous flow on networks built from scratch, the route the library
took before it ran them on fictitious defaults.
"""

from __future__ import annotations

from fractions import Fraction

import clearflow as cf
from clearflow.errors import SingularSystemError, VerificationFailedError
from clearflow.scalars import zero_one


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


def least_injection(net: cf.FinancialNetwork) -> tuple[Fraction, ...]:
    """max(0, b - c - L^T 1) per bank, exact."""
    assert net.mode == cf.RATIONAL, "the least-injection oracle runs exact"
    owed = [sum((row[i] for row in net.liabilities), Fraction(0)) for i in range(net.n)]
    return tuple(
        max(Fraction(0), net.total_debt[i] - net.cash[i] - owed[i]) for i in range(net.n)
    )


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
    received, _ = cf.balance_rates(net, net.total_debt)
    injections = [zero] * net.n
    boosted_cash = list(net.cash)
    for i in defaults:
        injections[i] = max(net.total_debt[i] - net.cash[i] - received[i], zero)
        boosted_cash[i] += injections[i]
    boosted = cf.build_network(net.liabilities, boosted_cash, mode=net.mode, ids=net.ids)
    replay = cf.run_flow(boosted, record_trajectory=False)
    seed_required = cf.decompose_nonactive(boosted, cf.active_set(boosted)).swamps
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
