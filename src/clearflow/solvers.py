"""Alternative clearing algorithms and solution-set analysis.

Three independent routes to a clearing vector live in this package: the
continuous flow (`flow.run_flow`), the fictitious-defaults iteration here,
and plain fixed-point iteration of the clamped payment map. On networks
without swamps all three agree; with swamps the flow and fictitious defaults
produce the least vector while fixed-point iteration started from the debt
vector descends to the greatest one.

Also here: the clearing residual, and the solution family and the least
bailout, which need no flow trajectory and so run on fictitious defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .errors import NoConvergenceError, OutOfRangeError, VerificationFailedError
from .flow import ClearingResult, _greatest_fixed_point, balance_rates
from .markov import (
    SwampDecomposition,
    active_set,
    decompose_nonactive,
    invariant_distribution,
    restrict,
    swamp_solution,
)
from .network import FinancialNetwork, Partition, classify_status
from .scalars import RATIONAL, Scalar, to_scalar, zero_one

#: default stopping tolerance for fixed-point iteration
PICARD_TOL = Fraction(1, 10**12)
PICARD_TOL_FLOAT = 1e-12
#: hard ceiling on iteration counts regardless of instance size
PICARD_MAX_CAP = 2_000_000


@dataclass(frozen=True)
class FDTrace:
    """Audit trail of the fictitious-defaults iteration.

    `iterates[k]` is the payment vector after k applications of the clamped
    map, `default_sets[k]` the defaulting set it induces, and `solves` the
    (set, input, solution) triple of each restricted linear solve.
    """

    iterates: tuple[tuple[Scalar, ...], ...]
    default_sets: tuple[frozenset[int], ...]
    solves: tuple[tuple[tuple[int, ...], tuple[Scalar, ...], tuple[Scalar, ...]], ...]

    @property
    def outer_iterations(self) -> int:
        return len(self.iterates) - 1


@dataclass(frozen=True)
class SwampSolution:
    """One swamp with its invariant weights and maximal internal payments."""

    banks: tuple[int, ...]
    weights: tuple[Scalar, ...]
    scale: Scalar
    payments: tuple[Scalar, ...]


@dataclass(frozen=True)
class SolutionFamily:
    """All clearing vectors: basic + componentwise combinations of swamp payments."""

    basic: tuple[Scalar, ...]
    swamps: tuple[SwampSolution, ...]
    greatest: tuple[Scalar, ...]
    decomposition: SwampDecomposition

    @property
    def unique(self) -> bool:
        return not self.swamps

    def member(self, coefficients: Sequence[Scalar]) -> tuple[Scalar, ...]:
        """basic + sum_k s_k * swamp_k for coefficients s_k in [0, 1]."""
        if len(coefficients) != len(self.swamps):
            raise OutOfRangeError(
                f"{len(coefficients)} coefficients for {len(self.swamps)} swamps"
            )
        vector = list(self.basic)
        for s, swamp in zip(coefficients, self.swamps):
            if not 0 <= s <= 1:
                raise OutOfRangeError(f"family coefficient {s} outside [0, 1]")
            for bank, pay in zip(swamp.banks, swamp.payments):
                vector[bank] += s * pay
        return tuple(vector)


@dataclass(frozen=True)
class BailoutPlan:
    """Least cash injections that make every bank pay in full, apart from
    swamps that need only a seed of cash.

    `unpaid` is each bank's shortfall without help and `injections` is
    x* = max(0, b - c - Q^T b), at most `unpaid`. Clearing again with the
    injections added pays all debts outside `seed_required`, and every bank
    with a positive injection finishes with zero cash.

    `seed_required` lists the swamps still without cash after the injections:
    each member is owed exactly what it owes, so any positive amount of cash
    anywhere in the swamp clears it in full, but no least such amount exists.
    They are reported instead of given an injection.
    """

    unpaid: tuple[Scalar, ...]
    injections: tuple[Scalar, ...]
    verified: bool
    seed_required: tuple[tuple[int, ...], ...]


def phi(net: FinancialNetwork, p: Sequence[Scalar]) -> list[Scalar]:
    """One application of the clamped payment map min(cash + received, debt)."""
    if len(p) != net.n:
        raise OutOfRangeError(f"payment vector has length {len(p)}, expected {net.n}")
    tol = net.zero_tol
    for i, x in enumerate(p):
        if x < -tol or x > net.total_debt[i] + tol:
            raise OutOfRangeError(
                f"payment {x} for bank {i} outside [0, {net.total_debt[i]}]"
            )
    received, _ = balance_rates(net, p)
    return [min(net.cash[i] + received[i], net.total_debt[i]) for i in range(net.n)]


def verify_clearing(net: FinancialNetwork, p: Sequence[Scalar]) -> Scalar:
    """Largest componentwise residual of the clearing equation; zero iff p clears."""
    image = phi(net, p)
    residual, _ = zero_one(net.mode)
    for i in range(net.n):
        residual = max(residual, abs(p[i] - image[i]))
    return residual


def result_from_payments(
    net: FinancialNetwork, p: Sequence[Scalar], algorithm: str
) -> ClearingResult:
    """Wrap a known clearing vector in a result, deriving the final partition
    and cash positions it implies."""
    tol = net.zero_tol
    received, _ = balance_rates(net, p)
    final_cash = tuple(net.cash[i] + received[i] - p[i] for i in range(net.n))
    partition = Partition(
        tuple(
            classify_status(net.total_debt[i] - p[i], final_cash[i], tol)
            for i in range(net.n)
        )
    )
    return ClearingResult(
        payments=tuple(p),
        final_partition=partition,
        defaults=frozenset(partition.zero),
        total_time=None,
        final_cash=final_cash,
        trajectory=(),
        algorithm=algorithm,
    )


def fictitious_defaults(net: FinancialNetwork) -> tuple[ClearingResult, FDTrace]:
    """Iterate: clamp, collect the defaulting set, solve payments on it exactly.

    The greatest fixed point of p = min(c + Q^T p, b) over the active banks,
    from the loop shared with `flow.big_bang_partition`: start from full
    payment of every debt, solve the balance system restricted to the
    current defaulting set (everyone else paying in full), re-clamp, and
    stop once the defaulting set stops growing; that takes at most n rounds.
    Nonactive banks never pay and are excluded from the solves, which keeps
    the restrictions transient on networks with swamps.
    """
    zero, _ = zero_one(net.mode)
    iterates, default_sets, solves = _greatest_fixed_point(
        net, active_set(net), net.cash, net.total_debt, [zero] * net.n, net.zero_tol
    )
    trace = FDTrace(
        iterates=tuple(iterates),
        default_sets=tuple(default_sets),
        solves=tuple(solves),
    )
    return result_from_payments(net, iterates[-1], "fd"), trace


def _default_cap(net: FinancialNetwork) -> int:
    positives = [x for row in net.liabilities for x in row if x > 0]
    positives += [c for c in net.cash if c > 0]
    if not positives:
        return 10 * max(net.n, 1)
    # clamped before the conversion: the bound can overflow a float
    bound = 10 * net.n * (1 + sum(net.total_debt) / min(positives))
    return int(min(PICARD_MAX_CAP, max(1000, bound)))


def picard_iterate(
    net: FinancialNetwork,
    max_iter: int | None = None,
    tol: Scalar | None = None,
) -> list[Scalar]:
    """Iterate the clamped payment map from the full-debt vector.

    Converges downward to the greatest clearing vector (the unique one when
    there are no swamps). In rational mode an exact fixed point is detected
    when reached; otherwise iteration stops once the sup-norm step falls
    below the tolerance. Exists as an independent check on the other two
    algorithms, not as the fast path.
    """
    if net.n == 0:
        return []
    if max_iter is None:
        max_iter = _default_cap(net)
    rational = net.mode == RATIONAL
    if tol is None:
        tol = PICARD_TOL if rational else PICARD_TOL_FLOAT
    elif rational and not isinstance(tol, (Fraction, int)):
        tol = to_scalar(tol, RATIONAL)

    p = list(net.total_debt)
    for _ in range(max_iter):
        received, _ = balance_rates(net, p)
        nxt = [min(net.cash[i] + received[i], net.total_debt[i]) for i in range(net.n)]
        change = max(abs(nxt[i] - p[i]) for i in range(net.n))
        if rational:
            if nxt == p:
                return nxt
            if change <= tol:
                return nxt
        else:
            if change <= tol:
                # settle the last few bits so reruns are reproducible
                for _ in range(200):
                    received, _ = balance_rates(net, nxt)
                    settled = [
                        min(net.cash[i] + received[i], net.total_debt[i])
                        for i in range(net.n)
                    ]
                    if settled == nxt:
                        break
                    nxt = settled
                return nxt
        p = nxt
    raise NoConvergenceError(f"no fixed point within {max_iter} iterations")


def solution_family(net: FinancialNetwork) -> SolutionFamily:
    """Least vector by fictitious defaults, a generator per swamp, their sum.

    Every clearing vector is the basic one plus an independent [0, 1]-scaled
    contribution from each swamp; the family is a point exactly when no
    swamps exist.
    """
    basic = fictitious_defaults(net)[0].payments
    decomposition = decompose_nonactive(net, active_set(net))
    swamps = []
    for banks in decomposition.swamps:
        dist = invariant_distribution(restrict(net.relative, banks))
        payments = swamp_solution(dist, net.total_debt)
        scale = sum(payments, zero_one(net.mode)[0])  # weights sum to one
        swamps.append(
            SwampSolution(
                banks=banks,
                weights=dist.weights,
                scale=scale,
                payments=tuple(payments),
            )
        )
    greatest = list(basic)
    for swamp in swamps:
        for bank, pay in zip(swamp.banks, swamp.payments):
            greatest[bank] += pay
    return SolutionFamily(
        basic=tuple(basic),
        swamps=tuple(swamps),
        greatest=tuple(greatest),
        decomposition=decomposition,
    )


def bailout_vector(net: FinancialNetwork) -> BailoutPlan:
    """Least injections in closed form, then one verifying replay.

    Any injection x that makes every debt clear leaves b a fixed point of
    p -> min(c + x + Q^T p, b), which forces x >= b - c - Q^T b, so
    x* = max(0, b - c - Q^T b) is a lower bound; the replay shows it is
    reached. x* is zero wherever the least clearing vector pays in full, so
    only defaulters get one. Fictitious defaults gives both vectors, the
    replay's on a copy of `net` with x* added to the cash; the replay demands
    that every debt outside the remaining cashless swamps clears and every
    injected bank finishes empty; failure is reported, never patched over.
    """
    base, _ = fictitious_defaults(net)
    zero, _ = zero_one(net.mode)
    defaults = sorted(base.defaults)
    unpaid = [zero] * net.n
    for i in defaults:
        unpaid[i] = net.total_debt[i] - base.payments[i]
    if not defaults:
        return BailoutPlan(
            unpaid=tuple(unpaid), injections=tuple(unpaid), verified=True, seed_required=()
        )

    received, _ = balance_rates(net, net.total_debt)
    injections = [zero] * net.n
    boosted_cash = list(net.cash)
    for i in defaults:
        injections[i] = max(net.total_debt[i] - net.cash[i] - received[i], zero)
        boosted_cash[i] = boosted_cash[i] + injections[i]
    boosted = replace(net, cash=tuple(boosted_cash))
    replay, _ = fictitious_defaults(boosted)
    seed_required = decompose_nonactive(boosted, active_set(boosted)).swamps
    seeded = {i for swamp in seed_required for i in swamp}
    tol = net.zero_tol
    all_paid = all(
        net.total_debt[i] - replay.payments[i] <= tol
        for i in range(net.n)
        if i not in seeded
    )
    injected_empty = all(
        replay.final_cash[i] <= tol for i in defaults if injections[i] > tol
    )
    if not (all_paid and injected_empty):
        raise VerificationFailedError(
            "verification replay failed: "
            + ("unpaid debts remain; " if not all_paid else "")
            + ("" if injected_empty else "an injected bank kept cash")
        )
    return BailoutPlan(
        unpaid=tuple(unpaid),
        injections=tuple(injections),
        verified=True,
        seed_required=seed_required,
    )
