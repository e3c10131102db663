"""Layout views: one evaluator, two tree representations.

The IR evaluator (:mod:`repro.interp.machine`) never touches a tree
directly — every representation operation goes through a *view*, so the
same statement/expression semantics execute against the ``Node`` object
graph and against :class:`~repro.layout.pool.ForestPool`
structure-of-arrays columns. The same indirection lets a view observe
every tree access: :class:`~repro.interp.meter.CostMeter` is the
object-graph view that charges the paper's cost model.

A view's node *references* are opaque to the evaluator: ``Node`` objects
for the object graph, integer row indices for the pool. The evaluator
always knows statically (from the resolved
:class:`~repro.ir.access.AccessPath` field metadata) whether a value it
reads is a child reference or a data value, so the two reference kinds
never need runtime disambiguation.

Both views share the compiled backends' external contract: ``ingest`` a
root ``Node``, run, ``finish`` — after which the original ``Node``
objects hold the final tree state (the pooled view writes its columns
back, exactly like :class:`repro.codegen.pooled_backend._PooledRunMixin`).
"""

from __future__ import annotations

from repro.errors import RuntimeFailure
from repro.ir.program import Program
from repro.layout.pool import ForestPool
from repro.runtime.heap import Heap
from repro.runtime.node import Node

VIEW_NAMES = ("object", "pooled")


class ObjectTreeView:
    """The identity view: references are :class:`Node` objects."""

    name = "object"

    def __init__(self, program: Program, heap: Heap):
        self.program = program
        self.heap = heap

    def ingest(self, root: Node):
        return root

    def type_of(self, ref) -> str:
        return ref.type_name

    def get(self, ref, field_name: str):
        return ref.get(field_name)

    def set(self, ref, field_name: str, value) -> None:
        ref.set(field_name, value)

    def get_member(self, ref, field_name: str, member: str):
        return ref.get(field_name).get(member)

    def set_member(self, ref, field_name: str, member: str, value) -> None:
        ref.get(field_name).set(member, value)

    def new(self, type_name: str):
        return Node.new(self.program, self.heap, type_name)

    def snapshot(self, ref) -> dict:
        return ref.snapshot(self.program)

    def finish(self) -> None:
        pass


class PooledTreeView:
    """References are integer row indices into a :class:`ForestPool`.

    ``ingest`` serializes the tree into a fresh pool (DFS preorder, the
    same ingest the pooled compiled modules perform); ``finish`` writes
    every row back into its backing ``Node`` so callers observe the run
    through the same object graph an object-layout run leaves behind.
    """

    name = "pooled"

    def __init__(self, program: Program, heap: Heap):
        self.program = program
        self.heap = heap
        self.pool: ForestPool | None = None

    def ingest(self, root: Node) -> int:
        self.pool = ForestPool.from_tree(self.program, root)
        return self.pool.roots[0]

    def type_of(self, ref: int) -> str:
        return self.pool.type_name(ref)

    def get(self, ref: int, field_name: str):
        column = self.pool.columns.get(field_name)
        if column is None:
            raise RuntimeFailure(
                f"pool has no column {field_name!r}"
            )
        return column[ref]

    def set(self, ref: int, field_name: str, value) -> None:
        column = self.pool.columns.get(field_name)
        if column is None:
            raise RuntimeFailure(
                f"pool has no column {field_name!r}"
            )
        column[ref] = value

    def get_member(self, ref: int, field_name: str, member: str):
        return self.get(ref, field_name).get(member)

    def set_member(self, ref: int, field_name: str, member: str, value):
        self.get(ref, field_name).set(member, value)

    def new(self, type_name: str) -> int:
        return self.pool.new(type_name)

    def snapshot(self, ref: int) -> dict:
        return self.pool.snapshot(ref)

    def finish(self) -> None:
        if self.pool is not None:
            self.pool.write_back(self.heap)


def view_for(layout: str, program: Program, heap: Heap):
    """The view implementing one layout name ('object' | 'pooled')."""
    if layout == "object":
        return ObjectTreeView(program, heap)
    if layout == "pooled":
        return PooledTreeView(program, heap)
    raise RuntimeFailure(
        f"unknown tree layout {layout!r}; have {VIEW_NAMES}"
    )
