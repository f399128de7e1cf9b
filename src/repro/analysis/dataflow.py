"""Generic forward dataflow engine over the CFG.

The engine implements the classic worklist algorithm with widening:

* blocks are processed in reverse postorder (so acyclic regions
  converge in one sweep);
* an *abstract state* is a dictionary mapping analysis-chosen keys to
  lattice facts; a key that is absent means "no information" (top);
* states are joined edge-wise at control-flow merges, with per-edge
  *refinement* (e.g. narrowing an integer range on the true edge of a
  comparison) applied before the join;
* at join points that close a cycle (targets of back edges in the
  reverse-postorder numbering) the join is replaced by *widening* once
  a key has been updated more than ``widen_threshold`` times, which
  guarantees termination on lattices of unbounded height such as
  integer intervals.

Clients subclass :class:`DataflowClient` and provide transfer
functions; :class:`ForwardDataflow` computes the fixpoint and returns
the state at entry to every reachable block.  The state *inside* a
block is recovered by replaying the client's transfer function from
the block's entry state (see :meth:`ForwardDataflow.replay`).
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Tuple

from ..ir.instructions import Instruction, Phi
from ..ir.module import BasicBlock, Function
from ..ir.values import Value
from .cfg import predecessor_map, reverse_postorder

#: Abstract states map client-chosen hashable keys to lattice facts.
State = Dict[object, object]

#: Sentinel key a client's :meth:`~DataflowClient.refine_edge` may set
#: (to any truthy value) to declare the whole edge *infeasible*: the
#: branch condition contradicts the current facts, so the edge
#: contributes bottom -- the engine drops it from the successor's join
#: instead of propagating along it.  This keeps refinement monotone:
#: an empty intersection must become "unreachable", never a patched-up
#: half-range (which could later exclude real executions).
INFEASIBLE = "__edge_infeasible__"

#: Stands for a key missing from one edge's state while merging.
_ABSENT = object()


class DataflowClient:
    """Transfer functions and lattice operations of one analysis.

    The default implementations make the engine a plain reachability
    walk; real clients override the hooks they need.
    """

    def boundary_state(self, fn: Function) -> State:
        """The abstract state on entry to the function."""
        return {}

    def transfer(self, inst: Instruction, state: State) -> None:
        """Update ``state`` in place for the effect of ``inst``.

        ``phi`` instructions are never passed here -- their facts flow
        in edge-wise through :meth:`phi_incoming_fact`."""

    def phi_incoming_fact(
        self, phi: Phi, value: Value, state: State
    ) -> Optional[object]:
        """The fact ``phi`` receives along an edge carrying ``value``
        (evaluated in the predecessor's out-state).  ``None`` means no
        information."""
        return None

    def refine_edge(
        self, pred: BasicBlock, succ: BasicBlock, state: State
    ) -> State:
        """Refine ``state`` (a private copy) for the edge pred->succ,
        e.g. from the branch condition.  Returns the refined state."""
        return state

    def join_fact(self, a: object, b: object) -> Optional[object]:
        """Least upper bound of two facts; ``None`` means top.

        Must be idempotent -- ``join_fact(f, f) == f`` -- because the
        engine skips the call for a single incoming edge and for facts
        that are the same object."""
        return a if a == b else None

    def widen_fact(self, old: object, new: object) -> Optional[object]:
        """Widening operator: must reach a fixpoint in finitely many
        steps.  Defaults to giving up (top)."""
        return None


class ForwardDataflow:
    """Worklist fixpoint solver for a :class:`DataflowClient`."""

    def __init__(self, client: DataflowClient, widen_threshold: int = 3,
                 max_iterations: int = 100_000):
        self.client = client
        self.widen_threshold = widen_threshold
        self.max_iterations = max_iterations

    def run(self, fn: Function) -> Dict[BasicBlock, State]:
        """Compute the fixpoint; returns the entry state per block."""
        client = self.client
        order = reverse_postorder(fn)
        if not order:
            return {}
        rpo_index = {block: i for i, block in enumerate(order)}
        # The CFG is fixed while the analysis runs: predecessor,
        # successor and phi lists are built once and serve every flow.
        preds = predecessor_map(fn)
        succs = {block: [s for s in block.successors if s in rpo_index]
                 for block in order}
        phis = {block: block.phis() for block in order}
        # A block is a widening point iff some predecessor comes later
        # in reverse postorder -- i.e. the block closes a cycle.
        widen_points = {
            block
            for block in order
            for pred in preds[block]
            if pred in rpo_index and rpo_index[pred] >= rpo_index[block]
        }

        entry = order[0]
        block_in: Dict[BasicBlock, State] = {entry: client.boundary_state(fn)}
        # The last state propagated along each CFG edge.  A block's
        # in-state is always recomputed *from scratch* as the join of
        # its recorded incoming edges: when an edge re-flows, its old
        # contribution is replaced wholesale, so facts that became
        # stale on that edge (e.g. a refined range from an earlier,
        # less precise iteration) cannot linger in the join.
        edge_out: Dict[Tuple[BasicBlock, BasicBlock], State] = {}
        joins: Dict[BasicBlock, int] = {}
        # Keys widened all the way to top (widen_fact returned None)
        # stay top: without this a dropped key could resurrect through
        # an always-feasible edge (e.g. the loop entry) and ping-pong
        # with the widening forever.
        topped: Dict[BasicBlock, set] = {}
        # The worklist pops the pending block earliest in reverse
        # postorder: a heap of RPO indices, each queued at most once.
        pending = [0]
        queued = {entry}
        iterations = 0
        while pending:
            iterations += 1
            if iterations > self.max_iterations:  # pragma: no cover
                raise RuntimeError("dataflow fixpoint did not converge")
            block = order[heapq.heappop(pending)]
            queued.discard(block)
            out = self._flow_block(block, block_in[block])
            for succ in succs[block]:
                edge_state = client.refine_edge(block, succ, dict(out))
                if edge_state.get(INFEASIBLE):
                    # The branch cannot be taken under current facts:
                    # this edge contributes bottom to the join.
                    edge_out.pop((block, succ), None)
                else:
                    for phi in phis[succ]:
                        fact = client.phi_incoming_fact(
                            phi, phi.incoming_value_for(block), edge_state
                        )
                        key = ("v", id(phi))
                        if fact is None:
                            edge_state.pop(key, None)
                        else:
                            edge_state[key] = fact
                    edge_out[(block, succ)] = edge_state

                edges = [
                    edge_out[(pred, succ)]
                    for pred in preds[succ]
                    if (pred, succ) in edge_out
                ]
                if not edges:
                    continue  # no feasible edge reaches succ (yet)
                new_in = self._merge_edges(edges)
                for key in topped.get(succ, ()):
                    new_in.pop(key, None)
                old_in = block_in.get(succ)
                if old_in is not None:
                    joins[succ] = joins.get(succ, 0) + 1
                    if (succ in widen_points
                            and joins[succ] > self.widen_threshold):
                        widened = self._widen_state(old_in, new_in)
                        gone = set(new_in) - set(widened)
                        if gone:
                            topped.setdefault(succ, set()).update(gone)
                        new_in = widened
                if old_in != new_in:
                    block_in[succ] = new_in
                    if succ not in queued:
                        queued.add(succ)
                        heapq.heappush(pending, rpo_index[succ])
        return block_in

    def _merge_edges(self, edges: List[State]) -> State:
        """Join the recorded incoming edge states of one block.

        A key survives only if *every* edge carries it: an absent key
        is top, and top joined with anything is top.  This holds for
        every key alike -- a phi's fact, an SSA value's fact and a
        memory slot's fact.  (A value defined on only one path cannot
        be read past the merge except through a phi, whose facts flow
        edge-wise, so dropping its fact here costs no precision.)

        A single edge is the merged state itself, and facts that are
        one object need no join: both shortcuts rely on
        :meth:`~DataflowClient.join_fact` being idempotent."""
        client = self.client
        if not edges:
            return {}
        merged = dict(edges[0])
        # Fold the remaining edges in one at a time: a key's facts are
        # joined in edge order, exactly as a per-key join would.
        for state in edges[1:]:
            step: State = {}
            for key, fact in merged.items():
                other = state.get(key, _ABSENT)
                if other is _ABSENT:
                    continue
                if other is not fact:
                    fact = client.join_fact(fact, other)
                    if fact is None:
                        continue
                step[key] = fact
            merged = step
        return merged

    def _widen_state(self, old: State, new: State) -> State:
        """Apply the client's widening to every key that keeps
        growing; keys no longer present stay dropped (that *is* the
        top direction)."""
        client = self.client
        widened: State = {}
        for key, new_fact in new.items():
            old_fact = old.get(key)
            if (old_fact is None or old_fact is new_fact
                    or old_fact == new_fact):
                widened[key] = new_fact
                continue
            fact = client.widen_fact(old_fact, new_fact)
            if fact is not None:
                widened[key] = fact
        return widened

    def _flow_block(self, block: BasicBlock, entry: State) -> State:
        state = dict(entry)
        for inst in block.instructions:
            if isinstance(inst, Phi):
                continue  # facts arrived edge-wise
            self.client.transfer(inst, state)
        return state

    def replay(
        self,
        block: BasicBlock,
        entry: State,
        visit: Callable[[Instruction, State], None],
    ) -> None:
        """Re-run the transfer over ``block`` from ``entry``, calling
        ``visit(inst, state)`` with the state *before* each
        instruction.  This recovers the per-instruction states that
        :meth:`run` does not store."""
        state = dict(entry)
        for inst in block.instructions:
            visit(inst, state)
            if not isinstance(inst, Phi):
                self.client.transfer(inst, state)

