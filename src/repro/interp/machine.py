"""The IR evaluator: the one piece of code that executes :mod:`repro.ir`
statements and expressions.

This is the repository's executable specification. It walks the IR
directly — dynamic dispatch on each node's runtime type, truncation via
``return;``, topology mutation (``new``/``delete``), globals, by-value
parameters, pure calls, and the entry schedule — against any
:mod:`repro.interp.views` layout view (object graph or ``ForestPool``
columns), with no generated code. It runs both program forms: the
original entry schedule (:meth:`RefInterpreter.run_entry`) and a fused
program under the paper's §3.4 active-flag semantics
(:meth:`RefInterpreter.run_fused`). Fusion's correctness claim is
observational equivalence between the two, so the fusion pass and both
compiled backends are measured against this evaluator
(:mod:`repro.fuzz`).

Costs are observed, not computed here. Run over a
:class:`~repro.interp.meter.CostMeter` view, the evaluator reports each
statement, call, fused item and truncation to the meter, and the meter
— the view every tree access passes through — charges memory traffic at
``Heap`` addresses. Without a meter those reports cost one ``is None``
test each. :class:`Interpreter` is the metered configuration the paper
experiments use.

C++ value semantics match the compiled backends exactly: ``/``
truncates toward zero, ``%`` takes the dividend's sign, ``&&``/``||``
short-circuit to bools, and object values copy on assignment and
parameter passing.
"""

from __future__ import annotations

from typing import Optional

from repro.codegen.python_backend import RuntimeContext
from repro.errors import RuntimeFailure
from repro.fusion.fused_ir import (
    FusedProgram,
    FusedUnit,
    GroupCall,
    GuardedStmt,
)
from repro.interp.meter import CostMeter
from repro.ir.access import AccessPath
from repro.ir.exprs import BinOp, Const, DataAccess, Expr, PureCall, UnaryOp
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
from repro.runtime.stats import ExecStats
from repro.runtime.values import _cxx_div, _cxx_mod, copy_value, default_value


class _ReturnSignal(Exception):
    """Raised by ``return;`` — truncates the current traversal frame."""


_RETURN = _ReturnSignal()

# Safety net for the §3.5 loop extension: traversal loops iterate over
# bounded local computations, so a huge trip count is a non-termination
# bug in the input program, not a workload.
_LOOP_LIMIT = 1_000_000


class _Frame:
    """One method activation: local values plus which names are tree
    aliases. Aliases are tracked explicitly (by ``_alias_`` definition)
    rather than sniffed with ``isinstance`` because pooled-view node
    references are plain ints — indistinguishable from data locals."""

    __slots__ = ("vars", "aliases")

    def __init__(self):
        self.vars: dict[str, object] = {}
        self.aliases: set[str] = set()


class RefInterpreter:
    """Execute a program's original or fused entry schedule against a
    layout view; a :class:`CostMeter` view also meters the run.

    ``globals`` is shared with the caller (typically a
    :class:`repro.codegen.python_backend.RuntimeContext`'s dict) so the
    final global state is observable the same way compiled runs expose
    it. ``node_visits``, ``truncations`` and ``writes`` (tree fields,
    topology slots, and globals) feed the interp metrics.
    """

    def __init__(self, program: Program, view, globals_dict: dict):
        program.finalize()
        self.program = program
        self.view = view
        self.globals = globals_dict
        self.meter = view if isinstance(view, CostMeter) else None
        self.node_visits = 0
        self.truncations = 0
        self.writes = 0

    # ==================================================================
    # entry
    # ==================================================================

    def run_entry(self, root) -> None:
        """The original entry sequence: each call in ``main`` runs to
        completion over the whole tree before the next starts."""
        for call in self.program.entry:
            frame = _Frame()
            args = [self.eval_expr(a, root, frame) for a in call.args]
            self.call_method(root, call.method_name, args)

    def run_fused(self, fused: FusedProgram, root) -> None:
        """The fused entry sequence: each entry group runs all of its
        member traversals in one pass, dispatched on the root's type."""
        for group in fused.entry_groups:
            root_type = self.view.type_of(root)
            unit = group.dispatch.get(root_type)
            if unit is None:
                raise RuntimeFailure(
                    f"no fused entry for root type {root_type}"
                )
            frame = _Frame()
            member_args = [
                tuple(self.eval_expr(a, root, frame) for a in arg_exprs)
                for arg_exprs in group.args_per_member
            ]
            self.call_fused(unit, root, member_args, (1 << unit.width) - 1)

    # ==================================================================
    # original (unfused) calls
    # ==================================================================

    def call_method(self, node, method_name: str, args: list) -> None:
        if node is None:
            raise RuntimeFailure(
                f"traversal {method_name!r} called on null"
            )
        method = self.program.resolve_method(
            self.view.type_of(node), method_name
        )
        self.node_visits += 1
        meter = self.meter
        if meter is not None:
            meter.enter_method(method, len(args))
        frame = _Frame()
        for param, value in zip(method.params, args):
            frame.vars[param.name] = copy_value(value)
        try:
            for stmt in method.body:
                self.exec_stmt(stmt, node, frame)
        except _ReturnSignal:
            self.truncations += 1
            if meter is not None:
                meter.truncate(fused=False)

    # ==================================================================
    # fused calls (paper §3.4 active-flag semantics)
    # ==================================================================

    def call_fused(
        self, unit: FusedUnit, node, member_args: list, active_flags: int
    ) -> None:
        """Run ``unit`` on ``node`` for the members whose bit is set in
        ``active_flags``; a member's ``return;`` clears its bit."""
        self.node_visits += 1
        meter = self.meter
        if meter is not None:
            meter.enter_fused(member_args[: unit.width])
        frames = []
        for member, method in enumerate(unit.members):
            frame = _Frame()
            args = member_args[member] if member < len(member_args) else ()
            for param, value in zip(method.params, args):
                frame.vars[param.name] = copy_value(value)
            frames.append(frame)
        checked = 0
        for item in unit.body:
            if active_flags == 0:
                break
            checked += 1
            if isinstance(item, GuardedStmt):
                if not active_flags & (1 << item.member):
                    continue
                try:
                    self.exec_stmt(item.stmt, node, frames[item.member])
                except _ReturnSignal:
                    active_flags &= ~(1 << item.member)
                    self.truncations += 1
                    if meter is not None:
                        meter.truncate(fused=True)
            else:
                self._exec_group_call(item, node, frames, active_flags)
        if meter is not None:
            meter.check_flags(checked)

    def _exec_group_call(
        self, group: GroupCall, node, frames: list, active_flags: int
    ) -> None:
        """Continue the active (and, in TreeFuser mode, guard-passing)
        members together on the receiver, as one fused call."""
        call_flags = 0
        child_args: list[tuple] = []
        for slot, call in enumerate(group.calls):
            frame = frames[call.member]
            if active_flags & (1 << call.member) and (
                call.guard is None or self.eval_expr(call.guard, node, frame)
            ):
                call_flags |= 1 << slot
                child_args.append(
                    tuple(self.eval_expr(a, node, frame) for a in call.args)
                )
            else:
                child_args.append(())
        if self.meter is not None:
            self.meter.charge_group_call(group, active_flags, call_flags)
        if call_flags == 0:
            return
        if group.receiver.is_this:
            child = node
        else:
            child = self.view.get(node, group.receiver.child.name)
            if child is None:
                raise RuntimeFailure(
                    f"fused group call on null child "
                    f"{self.view.type_of(node)}.{group.receiver.child.name}"
                )
        child_type = self.view.type_of(child)
        unit = group.dispatch.get(child_type)
        if unit is None:
            raise RuntimeFailure(
                f"no fused unit for dynamic type {child_type} in "
                f"group {group}"
            )
        self.call_fused(unit, child, child_args, call_flags)

    # ==================================================================
    # statements
    # ==================================================================

    def exec_stmt(self, stmt: Stmt, this, frame: _Frame) -> None:
        meter = self.meter
        if meter is not None:
            meter.charge_stmt(stmt)
        if isinstance(stmt, Assign):
            value = self.eval_expr(stmt.value, this, frame)
            self.write_path(stmt.target, this, frame, value)
        elif isinstance(stmt, If):
            branch = (
                stmt.then_body
                if self.eval_expr(stmt.cond, this, frame)
                else stmt.else_body
            )
            for sub in branch:
                self.exec_stmt(sub, this, frame)
        elif isinstance(stmt, While):
            iterations = 0
            while self.eval_expr(stmt.cond, this, frame):
                for sub in stmt.body:
                    self.exec_stmt(sub, this, frame)
                iterations += 1
                if iterations > _LOOP_LIMIT:
                    raise RuntimeFailure(
                        f"while loop exceeded {_LOOP_LIMIT} iterations "
                        "(likely non-terminating)"
                    )
                if meter is not None:  # the next condition test
                    meter.charge_stmt(stmt)
        elif isinstance(stmt, TraverseStmt):
            args = [self.eval_expr(a, this, frame) for a in stmt.args]
            if stmt.receiver.is_this:
                target = this
            else:
                target = self.view.get(this, stmt.receiver.child.name)
            self.call_method(target, stmt.method_name, args)
        elif isinstance(stmt, LocalDef):
            if stmt.init is not None:
                frame.vars[stmt.name] = copy_value(
                    self.eval_expr(stmt.init, this, frame)
                )
            else:
                frame.vars[stmt.name] = default_value(
                    self.program, stmt.type_name
                )
            frame.aliases.discard(stmt.name)
        elif isinstance(stmt, AliasDef):
            target = stmt.target
            frame.vars[stmt.name] = self._walk(
                target, target.steps, this, frame
            )
            frame.aliases.add(stmt.name)
        elif isinstance(stmt, Return):
            raise _RETURN
        elif isinstance(stmt, (New, Delete)):
            target = stmt.target
            parent = self._walk(target, target.steps[:-1], this, frame)
            self.writes += 1
            fresh = None
            if isinstance(stmt, New):
                fresh = self.view.new(stmt.type_name)
            self.view.set(parent, target.steps[-1].field.name, fresh)
        elif isinstance(stmt, PureStmt):
            self.eval_expr(stmt.call, this, frame)
        else:  # pragma: no cover - defensive
            raise RuntimeFailure(
                f"unknown statement {type(stmt).__name__}"
            )

    # ==================================================================
    # paths
    # ==================================================================

    def _read_child(self, node, field_name: str):
        child = self.view.get(node, field_name)
        if child is None:
            raise RuntimeFailure(
                f"null child {field_name!r} on "
                f"{self.view.type_of(node)}"
            )
        return child

    def _walk(self, path: AccessPath, steps, this, frame: _Frame):
        """Follow *steps* (child steps of *path*) from its base node."""
        node = self._base_node(path, this, frame)
        for step in steps:
            node = self._read_child(node, step.field.name)
        return node

    def _base_node(self, path: AccessPath, this, frame: _Frame):
        if path.base == "this":
            return this
        if path.is_local:
            if path.base_name not in frame.aliases:
                raise RuntimeFailure(
                    f"local {path.base_name!r} is not a tree alias"
                )
            return frame.vars[path.base_name]
        raise RuntimeFailure(f"path {path} cannot start at a global")

    def read_path(self, path: AccessPath, this, frame: _Frame):
        if path.is_global:
            if self.meter is not None:
                self.meter.read_global(path)
            value = self.globals[path.base_name]
        elif path.is_local and path.base_name not in frame.aliases:
            value = frame.vars[path.base_name]
        else:  # on-tree: this-based or through an alias
            node = self._base_node(path, this, frame)
            index = 0
            steps = path.steps
            while index < len(steps) and steps[index].field.is_child:
                node = self._read_child(node, steps[index].field.name)
                index += 1
            remaining = steps[index:]
            if not remaining:
                return node
            if len(remaining) == 1:
                return self.view.get(node, remaining[0].field.name)
            # a member of an object-valued field (members are primitive)
            return self.view.get_member(
                node, remaining[0].field.name, remaining[1].field.name
            )
        for step in path.steps:
            value = value.get(step.field.name)
        return value

    def write_path(
        self, path: AccessPath, this, frame: _Frame, value
    ) -> None:
        if path.is_global:
            self.writes += 1
            if self.meter is not None:
                self.meter.write_global(path)
            scope = self.globals
        elif path.is_local and path.base_name not in frame.aliases:
            scope = frame.vars
        else:
            scope = None
        if scope is not None:
            if not path.steps:
                scope[path.base_name] = copy_value(value)
                return
            container = scope[path.base_name]
            for step in path.steps[:-1]:
                container = container.get(step.field.name)
            container.set(path.steps[-1].field.name, value)
            return
        node = self._base_node(path, this, frame)
        index = 0
        steps = path.steps
        while index < len(steps) and steps[index].field.is_child:
            if index == len(steps) - 1:
                raise RuntimeFailure(f"assignment to tree node {path}")
            node = self._read_child(node, steps[index].field.name)
            index += 1
        remaining = steps[index:]
        self.writes += 1
        if len(remaining) == 1:
            self.view.set(node, remaining[0].field.name, copy_value(value))
            return
        self.view.set_member(
            node, remaining[0].field.name, remaining[1].field.name, value
        )

    # ==================================================================
    # expressions
    # ==================================================================

    def eval_expr(self, expr: Expr, this, frame: _Frame):
        if isinstance(expr, Const):
            return expr.value
        if isinstance(expr, DataAccess):
            return self.read_path(expr.path, this, frame)
        if isinstance(expr, BinOp):
            return self._eval_binop(expr, this, frame)
        if isinstance(expr, UnaryOp):
            operand = self.eval_expr(expr.operand, this, frame)
            if expr.op == "-":
                return -operand
            return not operand
        if isinstance(expr, PureCall):
            func = self.program.pure_functions[expr.func_name]
            args = [
                copy_value(self.eval_expr(a, this, frame))
                for a in expr.args
            ]
            return func(*args)
        raise RuntimeFailure(
            f"unknown expression {type(expr).__name__}"
        )

    def _eval_binop(self, expr: BinOp, this, frame: _Frame):
        op = expr.op
        if op == "&&":
            return bool(
                self.eval_expr(expr.lhs, this, frame)
                and self.eval_expr(expr.rhs, this, frame)
            )
        if op == "||":
            return bool(
                self.eval_expr(expr.lhs, this, frame)
                or self.eval_expr(expr.rhs, this, frame)
            )
        lhs = self.eval_expr(expr.lhs, this, frame)
        rhs = self.eval_expr(expr.rhs, this, frame)
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "*":
            return lhs * rhs
        if op == "/":
            return _cxx_div(lhs, rhs)
        if op == "%":
            return _cxx_mod(lhs, rhs)
        if op == "<":
            return lhs < rhs
        if op == "<=":
            return lhs <= rhs
        if op == ">":
            return lhs > rhs
        if op == ">=":
            return lhs >= rhs
        if op == "==":
            return lhs == rhs
        if op == "!=":
            return lhs != rhs
        raise RuntimeFailure(f"unknown operator {op!r}")


class Interpreter(RefInterpreter):
    """The paper's cost model: the evaluator over the ``Node`` object
    graph with a :class:`CostMeter` charging ``stats`` (the reproduction's
    stand-in for "compile both versions with clang -O2 and read the
    hardware counters"). Globals start at their declared defaults."""

    def __init__(
        self, program: Program, heap: Heap, stats: Optional[ExecStats] = None
    ):
        meter = CostMeter(program, heap, stats)
        super().__init__(program, meter, RuntimeContext(program, heap).globals)
        self.stats = meter.stats
