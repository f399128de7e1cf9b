"""Tests for the generic forward dataflow engine (worklist + widening)."""

import pytest

from repro.analysis.cfg import reverse_postorder
from repro.analysis.dataflow import (
    INFEASIBLE,
    DataflowClient,
    ForwardDataflow,
    State,
)
from repro.frontend import compile_source
from repro.ir.instructions import BinOp
from repro.opt import Mem2Reg, SimplifyCFG


def _fn(src, name="main"):
    mod = compile_source(src)
    SimplifyCFG().run(mod)
    Mem2Reg().run(mod)
    return mod.get_function(name)


DIAMOND = r"""
int g;
int main() {
    int x = g;
    if (x > 0) g = 1; else g = 2;
    return g;
}"""

LOOP = r"""
int f(int n) {
    int i = 0;
    while (i < n) i = i + 1;
    return i;
}"""


class TestReachability:
    def test_every_block_gets_an_entry_state(self):
        fn = _fn(DIAMOND)
        block_in = ForwardDataflow(DataflowClient()).run(fn)
        assert set(block_in) == set(reverse_postorder(fn))

    def test_infeasible_edges_prune_successors(self):
        # A client that declares every branch edge infeasible: only the
        # entry block is ever reached.
        class DeadEnds(DataflowClient):
            def refine_edge(self, pred, succ, state):
                state[INFEASIBLE] = True
                return state

        fn = _fn(DIAMOND)
        block_in = ForwardDataflow(DeadEnds()).run(fn)
        assert list(block_in) == [reverse_postorder(fn)[0]]

    def test_loop_converges_with_default_client(self):
        fn = _fn(LOOP, "f")
        block_in = ForwardDataflow(DataflowClient()).run(fn)
        assert set(block_in) == set(reverse_postorder(fn))


class TestJoin:
    def _engine(self, client=None):
        return ForwardDataflow(client or DataflowClient())

    def test_equal_facts_survive_the_join(self):
        merged = self._engine()._merge_edges([{"k": 1}, {"k": 1}])
        assert merged == {"k": 1}

    def test_conflicting_facts_drop_to_top(self):
        merged = self._engine()._merge_edges([{"k": 1}, {"k": 2}])
        assert merged == {}

    @pytest.mark.parametrize("key", [("v", 1), ("m", 1), "k"],
                             ids=["value", "slot", "other"])
    def test_a_key_missing_from_any_edge_is_dropped(self, key):
        # An absent key is top, and top joined with anything is top:
        # one rule for value keys, memory-slot keys and phi keys alike.
        engine = self._engine()
        for edges in ([{key: 1}, {}], [{}, {key: 1}],
                      [{key: 1}, {key: 1}, {}], [{key: 1}, {}, {key: 1}]):
            merged = engine._merge_edges([dict(e, shared=2) for e in edges])
            assert merged == {"shared": 2}, edges

    def test_phi_keys_follow_the_same_rule(self):
        # A phi whose incoming value has no fact on one edge (e.g. an
        # unrefined argument) is unknown after the merge.
        fn = _fn(r"""
        int f(int x, int c) {
            int y = 0;
            if (c > 0) y = 5; else y = x;
            return y;
        }""", "f")

        class Constants(DataflowClient):
            def phi_incoming_fact(self, phi, value, state):
                return getattr(value, "value", None)

        block_in = ForwardDataflow(Constants()).run(fn)
        merge = next(b for b in block_in if b.phis())
        assert ("v", id(merge.phis()[0])) not in block_in[merge]

    class JoinCounter(DataflowClient):
        def __init__(self):
            self.joins = 0

        def join_fact(self, a, b):
            self.joins += 1
            return super().join_fact(a, b)

    def test_single_edge_is_copied(self):
        client = self.JoinCounter()
        key = ("v", 123)
        edge = {key: 1, "k": 2}
        merged = self._engine(client)._merge_edges([edge])
        assert merged == edge and merged is not edge
        assert client.joins == 0

    def test_same_object_skips_the_join(self):
        client = self.JoinCounter()
        fact = (1, 2)
        merged = self._engine(client)._merge_edges(
            [{"k": fact}, {"k": fact}, {"k": fact}])
        assert merged == {"k": fact} and client.joins == 0
        equal = tuple([1, 2])  # equal, but a distinct object
        assert equal is not fact
        merged = self._engine(client)._merge_edges(
            [{"k": fact}, {"k": equal}])
        assert merged == {"k": fact} and client.joins == 1


class CountingClient(DataflowClient):
    """A deliberately diverging client: a counter that grows by one per
    arithmetic instruction and joins via max never stabilizes on a loop
    unless widening kicks in."""

    WIDENED = "many"

    def boundary_state(self, fn) -> State:
        return {"count": 0}

    def transfer(self, inst, state):
        count = state.get("count")
        if isinstance(inst, BinOp) and isinstance(count, int):
            state["count"] = count + 1

    def join_fact(self, a, b):
        if a == self.WIDENED or b == self.WIDENED:
            return self.WIDENED
        return max(a, b)

    def widen_fact(self, old, new):
        return self.WIDENED


class TestWidening:
    def test_diverging_client_terminates_through_widening(self):
        fn = _fn(LOOP, "f")
        engine = ForwardDataflow(CountingClient(), max_iterations=200)
        block_in = engine.run(fn)  # must not hit the iteration backstop
        facts = {state.get("count") for state in block_in.values()}
        assert CountingClient.WIDENED in facts

    def test_default_widening_drops_to_top(self):
        # Same client but with the default widen_fact (= give up): the
        # unstable key is dropped instead, which also terminates.
        class Dropping(CountingClient):
            def widen_fact(self, old, new):
                return None

        fn = _fn(LOOP, "f")
        block_in = ForwardDataflow(Dropping(), max_iterations=200).run(fn)
        loop_states = [s for s in block_in.values() if "count" not in s]
        assert loop_states  # the widened (dropped) fact is really gone

    def test_acyclic_cfg_never_widens(self):
        # On a diamond the counter stays exact: no widening point fires.
        fn = _fn(DIAMOND)
        block_in = ForwardDataflow(CountingClient()).run(fn)
        assert CountingClient.WIDENED not in {
            state.get("count") for state in block_in.values()
        }


class TestReplay:
    def test_replay_visits_each_instruction_with_pre_state(self):
        fn = _fn(LOOP, "f")
        client = CountingClient()
        engine = ForwardDataflow(client)
        block_in = engine.run(fn)
        for block, entry in block_in.items():
            seen = []
            engine.replay(block, entry,
                          lambda inst, state: seen.append(dict(state)))
            assert len(seen) == len(block.instructions)
            if seen:
                assert seen[0] == entry  # state *before* the first inst
