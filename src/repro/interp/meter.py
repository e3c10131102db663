"""The paper's cost model, as a meter on the IR evaluator.

The evaluator (:mod:`repro.interp.machine`) computes no costs. Attaching
a :class:`CostMeter` — by running the evaluator over it as the layout
view — makes it observe two kinds of event:

* **memory traffic.** The meter is an object-graph view, so every tree
  access the evaluator makes (child steps, field and member reads and
  writes, the slot a ``new``/``delete`` fills) passes through it and is
  charged to :class:`~repro.runtime.stats.ExecStats` at the node's
  :class:`~repro.runtime.heap.Heap` address, driving the simulated
  cache. Globals are charged at their heap segment addresses.
* **instructions, visits and truncations.** The evaluator reports each
  statement, method or fused-unit entry, fused body item, and
  truncation through the calls below, priced by
  the :class:`~repro.runtime.stats.CostModel` table. The same table
  prices unfused and fused code, and the fused overheads the paper
  describes (active-flag checks, call-flag packing, stub dispatch) are
  charged explicitly, so the instruction-overhead effect is reproduced
  rather than assumed.

A meter only observes: a metered run leaves the same tree, globals and
write-set as an unmetered one.
"""

from __future__ import annotations

from typing import Optional

from repro.fusion.fused_ir import GroupCall
from repro.interp.views import ObjectTreeView
from repro.ir.access import AccessPath
from repro.ir.exprs import expr_cost
from repro.ir.method import TraversalMethod
from repro.ir.program import Program
from repro.ir.stmts import (
    AliasDef,
    Assign,
    Delete,
    If,
    LocalDef,
    New,
    PureStmt,
    Return,
    Stmt,
    TraverseStmt,
    While,
)
from repro.runtime.heap import Heap
from repro.runtime.stats import CostModel, ExecStats


class CostMeter(ObjectTreeView):
    """Charges one execution's costs to ``stats`` (a fresh
    :class:`ExecStats` when none is given)."""

    def __init__(
        self, program: Program, heap: Heap, stats: Optional[ExecStats] = None
    ):
        super().__init__(program, heap)
        self.stats = stats if stats is not None else ExecStats()
        self.cost = self.stats.cost
        # static prices, keyed by id(stmt) or (id(group), flags...) and
        # stored with the statement or group: holding it keeps its id
        # from being reused while the entry exists
        self._prices: dict = {}

    # ------------------------------------------------------------------
    # memory traffic (the view protocol)
    # ------------------------------------------------------------------

    def _address(self, ref, field_name: str, member: str | None = None):
        layout = self.heap.layout(ref.type_name)
        return ref.address + layout.offset_of(field_name, member)

    def get(self, ref, field_name: str):
        self.stats.read(self._address(ref, field_name))
        return ref.get(field_name)

    def get_member(self, ref, field_name: str, member: str):
        self.stats.read(self._address(ref, field_name, member))
        return ref.get(field_name).get(member)

    def set(self, ref, field_name: str, value) -> None:
        self.stats.write(self._address(ref, field_name))
        ref.set(field_name, value)

    def set_member(self, ref, field_name: str, member: str, value) -> None:
        self.stats.write(self._address(ref, field_name, member))
        ref.get(field_name).set(member, value)

    def _global_address(self, path: AccessPath) -> int:
        member = path.steps[0].field.name if path.steps else None
        return self.heap.global_address(path.base_name, member)

    def read_global(self, path: AccessPath) -> None:
        self.stats.read(self._global_address(path))

    def write_global(self, path: AccessPath) -> None:
        self.stats.write(self._global_address(path))

    # ------------------------------------------------------------------
    # instructions, visits, truncations
    # ------------------------------------------------------------------

    def charge_stmt(self, stmt: Stmt) -> None:
        """A statement's own price: its expressions and path steps (a
        ``while`` pays this once per condition test)."""
        entry = self._prices.get(id(stmt))
        if entry is None:
            entry = self._prices[id(stmt)] = (
                stmt,
                _stmt_price(stmt, self.cost),
            )
        self.stats.instructions += entry[1]

    def enter_method(self, method: TraversalMethod, arg_count: int) -> None:
        stats = self.stats
        cost = self.cost
        stats.node_visits += 1
        stats.instructions += (
            cost.call_overhead + cost.per_argument * arg_count
        )
        if method.virtual:
            stats.instructions += cost.virtual_dispatch

    def enter_fused(self, member_args: list) -> None:
        """One visit and one stub dispatch for a whole fused unit."""
        stats = self.stats
        cost = self.cost
        stats.node_visits += 1
        stats.instructions += (
            cost.call_overhead
            + cost.virtual_dispatch
            + cost.per_argument * sum(len(args) for args in member_args)
        )

    def check_flags(self, count: int) -> None:
        """``count`` active-flag tests, one before each fused body item."""
        self.stats.instructions += self.cost.flag_check * count

    def charge_group_call(
        self, group: GroupCall, active_flags: int, call_flags: int
    ) -> None:
        key = (id(group), active_flags, call_flags)
        entry = self._prices.get(key)
        if entry is None:
            entry = self._prices[key] = (
                group,
                _group_call_price(group, active_flags, call_flags, self.cost),
            )
        self.stats.instructions += entry[1]

    def truncate(self, fused: bool) -> None:
        """A ``return;`` ended a frame; in a fused unit, clearing the
        member's active flag costs one more instruction."""
        self.stats.truncations += 1
        if fused:
            self.stats.instructions += self.cost.return_stmt


def _stmt_price(stmt: Stmt, cost: CostModel) -> int:
    if isinstance(stmt, Assign):
        return expr_cost(stmt.value) + len(stmt.target.steps)
    if isinstance(stmt, (If, While)):
        return expr_cost(stmt.cond) + cost.branch
    if isinstance(stmt, TraverseStmt):
        price = sum(expr_cost(a) for a in stmt.args)
        return price if stmt.receiver.is_this else price + cost.null_check
    if isinstance(stmt, LocalDef):
        return expr_cost(stmt.init) if stmt.init is not None else 0
    if isinstance(stmt, AliasDef):
        return len(stmt.target.steps)
    if isinstance(stmt, Return):
        return cost.return_stmt
    if isinstance(stmt, New):
        return cost.new_node + len(stmt.target.steps)
    if isinstance(stmt, Delete):
        return cost.delete_node + len(stmt.target.steps)
    if isinstance(stmt, PureStmt):
        return expr_cost(stmt.call)
    return 0


def _group_call_price(
    group: GroupCall, active_flags: int, call_flags: int, cost: CostModel
) -> int:
    """Forming a group call: a flag pack per slot, the guard of each
    active member (TreeFuser mode), the arguments of each calling
    member, and a null check before descending to a child."""
    price = cost.call_flag_pack * len(group.calls)
    for slot, call in enumerate(group.calls):
        if not active_flags & (1 << call.member):
            continue
        if call.guard is not None:
            price += expr_cost(call.guard) + cost.branch
        if call_flags & (1 << slot):
            price += sum(expr_cost(a) for a in call.args)
    if call_flags and not group.receiver.is_this:
        price += cost.null_check
    return price
