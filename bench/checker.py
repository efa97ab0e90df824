"""Independent checks of clearflow's CLI outputs.

Nothing here imports clearflow. The network JSON is read by this module's own
parser into Fractions (rational mode) or floats (float mode), and every
output is tested against arithmetic done here:

- solve / fd: the clearing residual max|p - min(c + L^T(p/b), b)| is 0
  (rational) or within a tolerance fixed from the largest entry (float);
  0 <= p <= b; banks this module's own reachability pass finds nonactive pay
  0; `defaults` is the set of banks with p < b. With the first two, the last
  of these makes p the least clearing vector, because clearing vectors differ
  only on swamp members, which are nonactive.
- trace: event times never decrease, at most 2n events, only the transitions
  positive->zero, positive->absorbing and zero->absorbing, total cash equals
  sum(c) at every event, and the last debt vector equals b - p.
- family: `basic` is the least clearing vector, `greatest` clears, the swamps
  are the closed groups this module finds itself, each pi sums to 1 and is
  fixed by Q_S^T, and m = min b_i / pi_i.
- bailout: injections equal max(0, b - c - L^T 1), a bound every injection
  that lets all debts clear must meet and one that is reached here.
"""

from __future__ import annotations

import json
from fractions import Fraction

RATIONAL = "rational"
FLOAT = "float"

#: float-mode tolerance, relative to n times the largest cash or debt entry
FLOAT_REL_TOL = 1e-9

ALLOWED_TRANSITIONS = {
    ("positive", "zero"),
    ("positive", "absorbing"),
    ("zero", "absorbing"),
}


class CheckFailed(Exception):
    """An output broke one of the independent checks."""


def _amount(value, mode: str):
    """A JSON amount (number or "p/q" string, read as text) in the mode's type."""
    exact = Fraction(str(value).strip())
    return exact if mode == RATIONAL else float(exact)


class NetworkCheck:
    """One network, read independently, with the checks for every command."""

    def __init__(self, text: str, mode: str):
        if mode not in (RATIONAL, FLOAT):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        doc = json.loads(text, parse_float=str, parse_int=str)
        self.ids = [str(bank["id"]) for bank in doc["banks"]]
        n = self.n = len(self.ids)
        index = {bank_id: k for k, bank_id in enumerate(self.ids)}
        zero = self.zero = Fraction(0) if mode == RATIONAL else 0.0
        self.cash = [_amount(bank["cash"], mode) for bank in doc["banks"]]
        self.debts = [[zero] * n for _ in range(n)]
        for entry in doc.get("liabilities", []):
            i, j = index[str(entry["from"])], index[str(entry["to"])]
            self.debts[i][j] += _amount(entry["amount"], mode)
        self.total = [sum(row, zero) for row in self.debts]
        # in-edges of each bank: (debtor j, amount owed to this bank)
        self.owed_by = [
            [(j, self.debts[j][i]) for j in range(n) if self.debts[j][i] > 0]
            for i in range(n)
        ]
        largest = max(self.cash + self.total + [x for row in self.debts for x in row])
        self.tol = zero if mode == RATIONAL else FLOAT_REL_TOL * n * float(largest)
        self.active = self._active_set()
        self.swamps = self._swamps()

    # -- graph passes ---------------------------------------------------------

    def _active_set(self) -> frozenset[int]:
        """Banks with cash and, transitively, every creditor of an active bank."""
        frontier = [i for i in range(self.n) if self.cash[i] > 0]
        active = set(frontier)
        while frontier:
            i = frontier.pop()
            for j in range(self.n):
                if j not in active and self.debts[i][j] > 0:
                    active.add(j)
                    frontier.append(j)
        return frozenset(active)

    def _reach(self, start: int, nodes: set[int]) -> set[int]:
        seen = {start}
        stack = [start]
        while stack:
            i = stack.pop()
            for j in nodes:
                if j not in seen and self.debts[i][j] > 0:
                    seen.add(j)
                    stack.append(j)
        return seen

    def _swamps(self) -> set[frozenset[int]]:
        """Closed strongly connected groups of nonactive indebted banks."""
        nodes = {i for i in range(self.n) if i not in self.active and self.total[i] > 0}
        reach = {i: self._reach(i, nodes) for i in nodes}
        swamps = set()
        for i in nodes:
            group = frozenset(j for j in reach[i] if i in reach[j])
            leaves = any(
                self.debts[a][k] > 0 for a in group for k in range(self.n) if k not in group
            )
            if len(group) > 1 and not leaves:
                swamps.add(group)
        return swamps

    # -- arithmetic -----------------------------------------------------------

    def _near(self, x, y) -> bool:
        return x == y if self.mode == RATIONAL else abs(x - y) <= self.tol

    def _vector(self, values, what: str) -> list:
        if not isinstance(values, list) or len(values) != self.n:
            raise CheckFailed(f"{what}: expected {self.n} entries")
        return [_amount(v, self.mode) for v in values]

    def inflow(self, p) -> list:
        """(L^T (p / b))_i: what bank i receives when every bank j pays p_j."""
        return [
            sum((p[j] * amount / self.total[j] for j, amount in self.owed_by[i]), self.zero)
            for i in range(self.n)
        ]

    def check_clears(self, p, what: str) -> None:
        for i in range(self.n):
            if p[i] < -self.tol or p[i] > self.total[i] + self.tol:
                raise CheckFailed(f"{what}: payment {p[i]} of bank {self.ids[i]} outside [0, b]")
        received = self.inflow(p)
        for i in range(self.n):
            image = min(self.cash[i] + received[i], self.total[i])
            if not self._near(p[i], image):
                raise CheckFailed(
                    f"{what}: residual {abs(p[i] - image)} at bank {self.ids[i]}"
                )

    def check_least(self, p, what: str) -> None:
        """p clears and nonactive banks pay nothing: p is the least clearing vector."""
        self.check_clears(p, what)
        for i in range(self.n):
            if i not in self.active and p[i] != 0:
                raise CheckFailed(f"{what}: nonactive bank {self.ids[i]} pays {p[i]}")

    def _same_vector(self, p, q, what: str) -> None:
        for i in range(self.n):
            if not self._near(p[i], q[i]):
                raise CheckFailed(f"{what}: differs at bank {self.ids[i]}: {p[i]} vs {q[i]}")

    # -- commands -------------------------------------------------------------

    def check_solve(self, text: str, flow_payments=None) -> list:
        """Check `solve` output; returns the payments it carries.

        With `flow_payments` (an earlier flow answer on this network) the
        payments must equal it exactly in rational mode.
        """
        doc = json.loads(text)
        p = self._vector(doc["payments"], "payments")
        self.check_least(p, "payments")
        defaults = set(doc["defaults"])
        if self.mode == RATIONAL:
            expected = {self.ids[i] for i in range(self.n) if p[i] < self.total[i]}
            if defaults != expected:
                raise CheckFailed(f"defaults {sorted(defaults)} != {sorted(expected)}")
        else:
            short = {self.ids[i] for i in range(self.n) if self.total[i] - p[i] > self.tol}
            owing = {self.ids[i] for i in range(self.n) if p[i] < self.total[i]}
            if not short <= defaults <= owing:
                raise CheckFailed("defaults do not match the banks paying less than b")
        if doc["unique"] != (not self.swamps):
            raise CheckFailed("`unique` disagrees with the swamp count")
        if flow_payments is not None:
            self._same_vector(p, flow_payments, f"{doc['algorithm']} vs flow payments")
        return p

    def check_trace(self, text: str, flow_payments=None) -> list:
        """Check `trace` output; returns the payments b - (last debt vector)."""
        lines = [json.loads(line) for line in text.splitlines() if line.strip()]
        if len(lines) > 2 * self.n:
            raise CheckFailed(f"{len(lines)} events exceed 2n = {2 * self.n}")
        index = {bank_id: k for k, bank_id in enumerate(self.ids)}
        status = [
            "absorbing" if self.total[i] == 0 else "positive" if self.cash[i] > 0 else None
            for i in range(self.n)
        ]
        total_cash = sum(self.cash, self.zero)
        last_time = self.zero
        debt = list(self.total)
        for k, event in enumerate(lines):
            time = _amount(event["time"], self.mode)
            if time < last_time:
                raise CheckFailed(f"event {k}: time {time} before {last_time}")
            last_time = time
            moved = set()
            for tr in event["transitions"]:
                i = index[tr["id"]]
                before, after = tr["from"], tr["to"]
                if (before, after) not in ALLOWED_TRANSITIONS:
                    raise CheckFailed(f"event {k}: forbidden transition {before} -> {after}")
                # a cashless bank may start positive (revealed at time zero) or zero
                if status[i] is not None and status[i] != before:
                    raise CheckFailed(f"event {k}: bank {tr['id']} is {status[i]}, not {before}")
                status[i] = after
                moved.add(tr["id"])
            if moved != set(event["movers"]):
                raise CheckFailed(f"event {k}: movers differ from transitions")
            cash = self._vector(event["cash"], f"event {k} cash")
            if not self._near(sum(cash, self.zero), total_cash):
                raise CheckFailed(f"event {k}: total cash {sum(cash, self.zero)} != {total_cash}")
            debt = self._vector(event["debt"], f"event {k} debt")
        p = [self.total[i] - debt[i] for i in range(self.n)]
        self.check_least(p, "trace payments b - d")
        if flow_payments is not None:
            self._same_vector(p, flow_payments, "trace payments vs flow payments")
        return p

    def check_family(self, text: str, flow_payments=None) -> None:
        doc = json.loads(text)
        basic = self._vector(doc["basic"], "basic")
        self.check_least(basic, "basic")
        if flow_payments is not None:
            self._same_vector(basic, flow_payments, "basic vs flow payments")
        greatest = self._vector(doc["greatest"], "greatest")
        self.check_clears(greatest, "greatest")
        index = {bank_id: k for k, bank_id in enumerate(self.ids)}
        found = {frozenset(index[b] for b in swamp["banks"]) for swamp in doc["swamps"]}
        if found != self.swamps:
            raise CheckFailed(f"{len(found)} swamps reported, {len(self.swamps)} found here")
        if doc["unique"] != (not self.swamps):
            raise CheckFailed("`unique` disagrees with the swamp count")
        expected_greatest = list(basic)
        for swamp in doc["swamps"]:
            banks = [index[b] for b in swamp["banks"]]
            pi = [_amount(w, self.mode) for w in swamp["pi"]]
            if len(pi) != len(banks) or any(w <= 0 for w in pi):
                raise CheckFailed(f"swamp {swamp['banks']}: pi is not a positive vector")
            if not self._near(sum(pi, self.zero), 1):
                raise CheckFailed(f"swamp {swamp['banks']}: pi sums to {sum(pi, self.zero)}")
            for a, i in enumerate(banks):
                image = sum(
                    (pi[s] * self.debts[j][i] / self.total[j] for s, j in enumerate(banks)),
                    self.zero,
                )
                if not self._near(pi[a], image):
                    raise CheckFailed(f"swamp {swamp['banks']}: pi not fixed by Q_S^T")
            scale = min(self.total[i] / pi[a] for a, i in enumerate(banks))
            if not self._near(_amount(swamp["m"], self.mode), scale):
                raise CheckFailed(f"swamp {swamp['banks']}: m != min b_i / pi_i")
            pays = [_amount(x, self.mode) for x in swamp["payments"]]
            for a, i in enumerate(banks):
                if not self._near(pays[a], scale * pi[a]):
                    raise CheckFailed(f"swamp {swamp['banks']}: payments != m * pi")
                expected_greatest[i] += pays[a]
        self._same_vector(greatest, expected_greatest, "greatest vs basic + swamp payments")

    def check_bailout(self, text: str, flow_payments=None) -> None:
        doc = json.loads(text)
        if doc["verified"] is not True:
            raise CheckFailed("bailout plan not verified")
        injections = self._vector(doc["injections"], "injections")
        for i in range(self.n):
            received_in_full = sum((amount for _, amount in self.owed_by[i]), self.zero)
            bound = max(self.zero, self.total[i] - self.cash[i] - received_in_full)
            if not self._near(injections[i], bound):
                raise CheckFailed(
                    f"injection {injections[i]} at bank {self.ids[i]} != max(0, b - c - L^T 1) = {bound}"
                )
        unpaid = self._vector(doc["unpaid"], "unpaid")
        paid = [self.total[i] - unpaid[i] for i in range(self.n)]
        self.check_least(paid, "b - unpaid")
        if flow_payments is not None:
            self._same_vector(paid, flow_payments, "b - unpaid vs flow payments")
