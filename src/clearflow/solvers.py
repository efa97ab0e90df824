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

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .errors import InvalidParamsError, NoConvergenceError, OutOfRangeError, VerificationFailedError
from .flow import ClearingResult, FDTrace, _greatest_fixed_point, balance_rates
from .markov import (
    SwampDecomposition,
    decompose_nonactive,
    invariant_distribution,
    restrict,
    swamp_solution,
)
from .network import FinancialNetwork, Partition, classify_status
from .scalars import (
    RATIONAL,
    Scalar,
    clamp,
    differences,
    outside,
    signed_sums,
    to_scalar,
    zero_one,
)

#: default stopping tolerance for fixed-point iteration
PICARD_TOL = Fraction(1, 10**12)
PICARD_TOL_FLOAT = 1e-12
#: hard ceiling on iteration counts regardless of instance size
PICARD_MAX_CAP = 2_000_000


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
    """One application of the clamped payment map min(cash + received, debt).

    Each payment must lie in [-tol, b_i + tol], tol = `zero_tol`: the
    bounds are formed once per call and the range test is
    `scalars.outside`, which in rational mode compares integers."""
    if len(p) != net.n:
        raise OutOfRangeError(f"payment vector has length {len(p)}, expected {net.n}")
    tol = net.zero_tol
    high = [b + tol for b in net.total_debt] if tol else net.total_debt
    i = outside(p, -tol, high)
    if i is not None:
        raise OutOfRangeError(f"payment {p[i]} for bank {i} outside [0, {net.total_debt[i]}]")
    return _clamp(net, p)


def _clamp(net: FinancialNetwork, p: Sequence[Scalar]) -> list[Scalar]:
    """min(c + Q^T p, b) by `scalars.clamp`, with no check of p."""
    image = list(net.cash)
    clamp(image, net.cash, balance_rates(net, p), net.total_debt, range(net.n))
    return image


def verify_clearing(net: FinancialNetwork, p: Sequence[Scalar]) -> Scalar:
    """Largest componentwise residual of the clearing equation; zero iff p
    clears. A bank whose payment is its image, by identity or else by
    equality, adds nothing: the largest residual starts at zero."""
    image = phi(net, p)
    residual, _ = zero_one(net.mode)
    for x, y in zip(p, image):
        if x is not y and x != y:
            residual = max(residual, abs(x - y))
    return residual


def result_from_payments(
    net: FinancialNetwork, p: Sequence[Scalar], algorithm: str
) -> ClearingResult:
    """Wrap a known clearing vector in a result, deriving the final partition
    and cash positions it implies: final cash c + Q^T p - p by
    `scalars.signed_sums`, and remaining debt b - p by `scalars.differences`,
    where a bank that pays in full gives 0 with no arithmetic."""
    tol = net.zero_tol
    everyone = range(net.n)
    final_cash = list(net.cash)
    signed_sums(final_cash, (net.cash, balance_rates(net, p)), (p,), everyone)
    debts = list(net.total_debt)
    differences(debts, net.total_debt, p, everyone)
    partition = Partition(
        tuple(classify_status(d, c, tol) for d, c in zip(debts, final_cash))
    )
    return ClearingResult(
        payments=tuple(p),
        final_partition=partition,
        defaults=frozenset(partition.zero),
        total_time=None,
        final_cash=tuple(final_cash),
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
    trace = _greatest_fixed_point(
        net, net.active, net.cash, net.total_debt, [zero] * net.n, net.zero_tol
    )
    return result_from_payments(net, trace.iterates[-1], "fd"), trace


def _default_cap(net: FinancialNetwork) -> int:
    positives = [
        net.liabilities[i][j] for i, row in enumerate(net.shares) for j, _ in row if j != i
    ]
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
    algorithms, not as the fast path. Raises `InvalidParamsError` when
    `max_iter` is not an int (a bool is not one) of at least 1, or `tol` is
    negative or not finite.
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
    if isinstance(max_iter, bool) or not isinstance(max_iter, int):
        raise InvalidParamsError(f"max_iter must be an int, got {max_iter!r}")
    if max_iter < 1:
        raise InvalidParamsError(f"max_iter must be at least 1, got {max_iter}")
    if not 0 <= tol < math.inf:
        raise InvalidParamsError(f"tol must be finite and nonnegative, got {tol}")

    p = list(net.total_debt)
    for _ in range(max_iter):
        nxt = _clamp(net, p)
        if max(abs(x - y) for x, y in zip(nxt, p)) <= tol:
            if not rational:
                # settle the last few bits so reruns are reproducible
                for _ in range(200):
                    settled = _clamp(net, nxt)
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
    decomposition = decompose_nonactive(net)
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
    The shortfalls b - p, x* and the boosted cash c + x* are per-bank sums
    of `scalars.signed_sums`, formed only for the defaulters, and the
    replay's remaining debts come from `scalars.differences`.
    """
    base, _ = fictitious_defaults(net)
    zero, _ = zero_one(net.mode)
    debts = net.total_debt
    defaults = sorted(base.defaults)
    unpaid = [zero] * net.n
    signed_sums(unpaid, (debts,), (base.payments,), defaults)
    if not defaults:
        return BailoutPlan(
            unpaid=tuple(unpaid), injections=tuple(unpaid), verified=True, seed_required=()
        )

    injections = [zero] * net.n
    signed_sums(injections, (debts,), (net.cash, balance_rates(net, debts)), defaults)
    for i in defaults:
        injections[i] = max(injections[i], zero)
    boosted_cash = list(net.cash)
    signed_sums(boosted_cash, (net.cash, injections), (), defaults)
    boosted = replace(net, cash=tuple(boosted_cash))
    replay, _ = fictitious_defaults(boosted)
    seed_required = decompose_nonactive(boosted).swamps
    seeded = {i for swamp in seed_required for i in swamp}
    tol = net.zero_tol
    left = list(debts)
    differences(left, debts, replay.payments, range(net.n))
    all_paid = all(left[i] <= tol for i in range(net.n) if i not in seeded)
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
