import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genlabel
from genlabel import Graph, GeneratorSpec, generate, run_sync, subseed
from genlabel.rng import (GAMMA, MASK64, Stream, draw_array, geometric_draws, mix64,
                          node_keys, stream_base, stream_bases, u64_draws, uniform_draws)
from genlabel.runtime import NodeProgram, RunReport


class TestStreams:
    def test_replay_identical(self):
        a = Stream(1, 0)
        b = Stream(1, 0)
        assert [a.draw_u64() for _ in range(50)] == [b.draw_u64() for _ in range(50)]

    def test_nodes_distinct_over_many_seeds(self):
        distinct = sum(
            Stream(seed, 0).draw_u64() != Stream(seed, 1).draw_u64()
            for seed in range(10_000)
        )
        assert distinct >= 9_990  # overwhelming empirical frequency

    def test_bound_one_always_zero(self):
        s = Stream(3, 3)
        assert all(s.draw_uniform(1) == 0 for _ in range(20))

    def test_draw_many_matches_scalar_path(self):
        a = Stream(9, 4)
        b = Stream(9, 4)
        assert a.draw_many(100, 7) == [b.draw_uniform(7) for _ in range(100)]

    def test_bounds_above_two_to_the_64_terminate(self):
        """Draws wider than one 64-bit word once looped forever.  They run in a
        child process, so a regression fails on the timeout instead of hanging
        the suite; a bound of exactly 2**64 stays a single raw word."""
        a, b = Stream(9, 4), Stream(9, 4)
        assert a.draw_many(5, 2**64) == [b.draw_u64() for _ in range(5)]
        code = (
            "from genlabel import PolyFamily, Stream, verify_cover_free\n"
            "s = Stream(0, 0)\n"
            "assert 0 <= s.draw_uniform(2**64 + 1) < 2**64 + 1\n"
            "values = s.draw_many(3, 2**70)\n"
            "assert len(values) == 3 and all(0 <= x < 2**70 for x in values)\n"
            "fam = PolyFamily(q=101, d=9)\n"
            "assert verify_cover_free(fam, 2, mode='sampled', trials=100).ok\n"
        )
        src = Path(genlabel.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("bound", [7, 2**63 + 1, 2**64, 2**64 + 1])
    def test_draw_many_follows_documented_rule(self, seed, bound):
        """draw_many against the documented rule, written out here: raw draw j
        of stream (s, v) is mix64(stream_base(s, v) + j*GAMMA); a value reads as
        many raw words as the bound needs, the first most significant, and is
        rejected at or above the largest multiple of the bound that fits."""
        words = -(-(bound - 1).bit_length() // 64)
        span = 1 << (64 * words)
        limit = span - span % bound
        for node, count in ((0, 40), (3, 9)):
            base = stream_base(seed, node)
            j, expected = 0, []
            while len(expected) < count:
                value = 0
                for _ in range(words):
                    j += 1
                    value = (value << 64) | mix64((base + j * GAMMA) & MASK64)
                if value < limit:
                    expected.append(value % bound)
            assert Stream(seed, node).draw_many(count, bound) == expected

    @pytest.mark.parametrize("seed", [0, 12345, 2**64 - 1])
    @pytest.mark.parametrize("bound", [1, 7, 40, 2**63 + 1, 2**64 - 1, 2**64])
    def test_draw_array_matches_draw_many(self, seed, bound):
        """The batched draw is bit-exact with fresh scalar streams, row by row;
        2**63 + 1 rejects about half of all raw draws, so most of its rows
        take the scalar redraw.  Bounds past 2**64 are drawn by draw_many
        alone (test_draw_many_follows_documented_rule)."""
        for n, count in ((37, 11), (5, 1), (0, 9), (6, 0)):
            rows = draw_array(seed, n, count, bound).tolist()
            assert rows == [Stream(seed, v).draw_many(count, bound) for v in range(n)]

    @given(st.integers(0, 2**64 - 1), st.data())
    @settings(max_examples=100, deadline=None)
    def test_batched_geometric_matches_streams(self, seed, data):
        """stream_bases is stream_base under one seed, and geometric_draws is
        Stream.geometric on every listed node: three calls in a row on node
        subsets, as in successive clustering phases, so the counters carry
        over exactly as the streams' do."""
        n = 12
        bases = stream_bases(seed, node_keys(n))
        assert bases == [stream_base(seed, v) for v in range(n)]
        streams = [Stream(seed, v) for v in range(n)]
        counters, out = [0] * n, [None] * n
        for _ in range(3):
            cap = data.draw(st.integers(1, 64), label="cap")
            nodes = data.draw(st.lists(st.integers(0, n - 1), unique=True).map(sorted),
                              label="nodes")
            geometric_draws(bases, counters, nodes, cap, out)
            assert [out[v] for v in nodes] == [streams[v].geometric(cap) for v in nodes]
            assert counters == [s.counter for s in streams]

    @given(st.integers(0, 2**64 - 1), st.data())
    @settings(max_examples=100, deadline=None)
    def test_counter_draws_match_streams(self, seed, data):
        """u64_draws and uniform_draws are Stream.draw_u64 and
        Stream.draw_uniform, values and counters, on streams that have
        already drawn, in calls that may list a stream more than once."""
        n = 5
        bases = stream_bases(seed, node_keys(n))
        streams = [Stream(seed, v) for v in range(n)]
        counters = [0] * n
        for v in range(n):
            skip = data.draw(st.integers(1, 20), label="skip")
            assert u64_draws(bases, counters, v, skip) == [
                streams[v].draw_u64() for _ in range(skip)]
        bound = st.sampled_from([1, 2, 3, 5, 7, 31, 97, 2**63 + 1, 2**64 - 1, 2**64])
        for _ in range(3):
            v = data.draw(st.integers(0, n - 1), label="v")
            count = data.draw(st.integers(0, 9), label="count")
            assert u64_draws(bases, counters, v, count) == [
                streams[v].draw_u64() for _ in range(count)]
            nodes = data.draw(st.lists(st.integers(0, n - 1), max_size=12), label="nodes")
            bounds = data.draw(st.lists(bound, min_size=len(nodes), max_size=len(nodes)),
                               label="bounds")
            assert uniform_draws(bases, counters, nodes, bounds) == [
                streams[v].draw_uniform(b) for v, b in zip(nodes, bounds)]
            assert counters == [s.counter for s in streams]

    def test_uniform_draws_reject_and_refuse(self):
        """Bound 2**63 + 1 rejects about half of all raw draws, so 200 draws
        take about 400 of them, as the stream's do.  A bound <= 0 raises
        ValueError, as Stream.draw_uniform does, and so does one past 2**64,
        which only the stream draws."""
        bases, counters = stream_bases(9, node_keys(1)), [0]
        stream = Stream(9, 0)
        assert u64_draws(bases, counters, 0, 3) == [stream.draw_u64() for _ in range(3)]
        bound = 2**63 + 1
        assert uniform_draws(bases, counters, [0] * 200, [bound] * 200) == [
            stream.draw_uniform(bound) for _ in range(200)]
        assert counters == [stream.counter] and 300 < stream.counter < 500
        for bound in (0, -3, 2**64 + 1):
            with pytest.raises(ValueError, match="bound"):
                uniform_draws(bases, counters, [0], [bound])
        for bound in (0, -3):
            with pytest.raises(ValueError, match="bound"):
                stream.draw_uniform(bound)
        assert counters == [stream.counter]

    def test_draw_array_is_the_uint64_matrix(self):
        """draw_array is refused for a bound wider than 64 bits, whose rows
        only Stream.draw_many draws."""
        array = draw_array(3, 5, 4, 7)
        assert (array.dtype.name, array.shape) == ("uint64", (5, 4))
        for bound in (0, 2**64 + 1):
            with pytest.raises(ValueError, match="bound"):
                draw_array(3, 5, 4, bound)

    def test_numpy_not_loaded_without_a_batched_draw(self, tmp_path):
        """numpy is imported on the first batched draw only, so the tags that
        never draw a row do not pay its load time and memory."""
        code = (
            "import sys\n"
            "import genlabel.cli\n"
            "for tag in ('network-decomposition', 'dominating-edge', 'edge-delta2'):\n"
            "    out = sys.argv[1] + '/' + tag + '.json'\n"
            "    argv = ['run', '--algo', tag, '--gen', 'gnp:n=40,p=0.1', '--out', out]\n"
            "    assert genlabel.cli.main(argv) == 0, tag\n"
            "assert 'numpy' not in sys.modules\n"
        )
        src = Path(genlabel.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr

    @given(st.integers(0, 2**64 - 1), st.integers(0, 1000), st.integers(2, 97))
    @settings(max_examples=50, deadline=None)
    def test_uniform_in_range(self, seed, node, bound):
        s = Stream(seed, node)
        assert all(0 <= s.draw_uniform(bound) < bound for _ in range(30))

    def test_permutation_is_permutation(self):
        s = Stream(5, 1)
        assert sorted(s.shuffle(list(range(40)))) == list(range(40))

    def test_geometric_truncation(self):
        s = Stream(11, 2)
        draws = [s.geometric(6) for _ in range(2000)]
        assert all(0 <= d <= 6 for d in draws)
        # fair-coin geometric: roughly half the draws are 0
        assert 800 <= sum(d == 0 for d in draws) <= 1200

    def test_subseed_varies(self):
        assert subseed(1, 2, 3) != subseed(1, 3, 2) != subseed(1, 2)


class EchoBall(NodeProgram):
    """Collect everything within a fixed radius, then stop: each round a node
    forwards the set of (vertex, draw) facts it has heard so far."""

    def __init__(self, radius: int):
        self.radius = radius

    def init(self, ctx):
        return (0, frozenset([(ctx.node, ctx.rng.draw_u64())]))

    def step(self, ctx, state, inbox):
        r, known = state
        for _, facts in inbox:
            known |= facts
        r += 1
        if r > self.radius:
            return (r, known), [], True
        return (r, known), [(u, known) for u in ctx.neighbors], False

    def output(self, ctx, state):
        return tuple(sorted(state[1]))


class TwoPhase(NodeProgram):
    """Sends one message then halts; used for accounting tests."""

    def init(self, ctx):
        return 0

    def step(self, ctx, state, inbox):
        if state == 0:
            return 1, [(u, "ping") for u in ctx.neighbors], False
        return 2, [], True


class TestEngine:
    def test_empty_graph(self):
        rep = run_sync(TwoPhase(), Graph.from_edges(0, []), 1)
        assert rep.rounds == 0 and rep.outputs == ()

    def test_determinism_byte_identical(self):
        g = generate(GeneratorSpec("gnp", 40, p=0.2, seed=2))
        import json

        r1 = run_sync(EchoBall(3), g, 99)
        r2 = run_sync(EchoBall(3), g, 99)
        doc1 = json.dumps({**r1.to_document(), "outputs": r1.outputs})
        doc2 = json.dumps({**r2.to_document(), "outputs": r2.outputs})
        assert doc1 == doc2

    def test_round_and_message_accounting(self, k4):
        rep = run_sync(TwoPhase(), k4, 1)
        assert rep.rounds == 2
        assert rep.comm_rounds == 1  # deliveries only in the second round
        assert rep.messages_total == 12
        assert not rep.incomplete

    def test_max_rounds_incomplete_flag(self, k4):
        rep = run_sync(EchoBall(10), k4, 1, max_rounds=2)
        assert rep.incomplete

    def test_halted_nodes_never_send_again(self, path4):
        steps: list = []

        class LoggedTwoPhase(TwoPhase):
            def step(self, ctx, state, inbox):
                steps.append((ctx.node, state))
                return super().step(ctx, state, inbox)

        rep = run_sync(LoggedTwoPhase(), path4, 1, max_rounds=10)
        # a halted node that never steps again cannot send again
        assert sorted(steps) == [(v, s) for v in range(path4.n) for s in (0, 1)]
        assert rep.rounds == 2 and not rep.incomplete

    def test_round_isolation(self):
        """Info reachable in R rounds is a function of the radius-R ball only:
        graphs agreeing on the ball around v give v identical outputs."""
        base = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 4)])
        mutated = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7)])
        r_base = run_sync(EchoBall(2), base, 42)
        r_mut = run_sync(EchoBall(2), mutated, 42)
        for v in (0, 1, 2):  # radius-2 balls around 0..2 agree in both graphs
            assert r_base.outputs[v] == r_mut.outputs[v]
        assert r_base.outputs[4] != r_mut.outputs[4]  # ball differs here

    def test_sweep_counts_every_round_as_communication(self):
        rep = RunReport.sweep(7, 30)
        assert (rep.rounds, rep.comm_rounds, rep.messages_total) == (7, 7, 30)
        assert not rep.incomplete and rep.outputs == ()
        assert RunReport.sweep(2, 0, incomplete=True).incomplete

    def test_parallel_and_sequential_composition(self):
        a = RunReport(rounds=4, comm_rounds=3, messages_total=10)
        b = RunReport(rounds=6, comm_rounds=2, messages_total=5, incomplete=True)
        par = RunReport.parallel([a, b])
        assert (par.rounds, par.comm_rounds, par.messages_total) == (6, 3, 15)
        assert par.incomplete and par.outputs == ()
        assert not RunReport.parallel(iter([a, a])).incomplete
        seq = RunReport.sequential([a, b])
        assert (seq.rounds, seq.comm_rounds, seq.messages_total) == (10, 5, 15)
        assert seq.incomplete
        assert RunReport.parallel([]) == RunReport.sweep(0, 0)

    def test_seed_changes_transcript(self):
        g = generate(GeneratorSpec("path", 6))
        a = run_sync(EchoBall(2), g, 1)
        b = run_sync(EchoBall(2), g, 2)
        assert a.outputs != b.outputs
