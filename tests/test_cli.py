import enum
import gc
import inspect
import json
import math
import os
import subprocess
import sys
import time
from collections import namedtuple
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import genlabel
from genlabel import (GeneratorSpec, Graph, LabelDomain, PolyFamily, cli, decomposition,
                      generate, load_edge_list, verify)
from genlabel.cli import (
    ALGORITHMS,
    DEFAULT_SUITE,
    EXIT_CONFIG,
    EXIT_INCOMPLETE,
    EXIT_OK,
    EXIT_VERDICT,
    build_parser,
    build_report,
    cmd_bench,
    cmd_run,
    main,
    parse_gen_spec,
    parse_params,
    to_json,
)
from genlabel.cli import ConfigError
from genlabel.decomposition import (
    default_radius_cap,
    forest_decomposition,
    generic_network_decomposition,
)
from genlabel.graphs import MAX_GRAPH_SIZE, MAX_LINE_GRAPH_EDGES
from genlabel.labels import MAX_DELTA, IntLists


def run_cli(args, tmp_path=None):
    return main(args)


class TestParsing:
    def test_gen_spec_gnp(self):
        spec = parse_gen_spec("gnp:n=1024,p=0.01")
        assert spec.kind == "gnp" and spec.n == 1024 and spec.p == 0.01

    def test_gen_spec_forest_union(self):
        spec = parse_gen_spec("forest-union:n=64,a=2,seed=5")
        assert spec.a == 2 and spec.seed == 5

    def test_gen_spec_rejects_unknown(self):
        with pytest.raises(ConfigError):
            parse_gen_spec("hypercube:n=8")
        with pytest.raises(ConfigError):
            parse_gen_spec("gnp:n=8,q=0.1")

    @pytest.mark.parametrize("spec,message", [
        ("gnp:n=x,p=0.1", "generator field n='x' is not a int"),
        ("gnp:n=8,p=y", "generator field p='y' is not a float"),
    ])
    def test_gen_spec_field_names_its_type(self, spec, message):
        with pytest.raises(ConfigError) as exc:
            parse_gen_spec(spec)
        assert str(exc.value) == message

    def test_params_schema(self):
        assert parse_params("defective-coloring", ["p=3"]) == {"p": 3}
        with pytest.raises(ConfigError, match="unknown parameter"):
            parse_params("random-coloring", ["zeta=1"])
        with pytest.raises(ConfigError, match="requires"):
            parse_params("kuhn-edge", [])

    def test_every_algorithm_has_schema_and_runs(self):
        assert len(ALGORITHMS) == 12


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


Pair = namedtuple("Pair", "left right")

# Every kind of value json writes: ints and int subclasses, bools, None,
# floats with their special values, and strings with non-ASCII characters,
# control characters and lone surrogates; and non-empty lists of ints, which
# the report layout writes on one line.
SCALARS = (st.integers() | st.booleans() | st.none() | st.sampled_from(list(Level))
           | st.floats() | st.sampled_from([-0.0, 1e16, math.nan, math.inf, -math.inf])
           | st.text(st.characters(exclude_categories=()))
           | st.sampled_from(["\ud800", "a\udfffb", "\x00\x1f\x7f", "\u00e9\u2713\U0001f600"]))
KEYS = (st.text(st.characters(exclude_categories=())) | st.integers() | st.booleans()
        | st.none() | st.floats() | st.sampled_from(list(Level)))
INT_LISTS = st.lists(st.integers(), min_size=1, max_size=6)
DOCUMENTS = st.recursive(
    SCALARS | INT_LISTS,
    lambda inner: (st.lists(inner, max_size=6) | st.lists(inner, max_size=6).map(tuple)
                   | st.builds(Pair, inner, inner)
                   | st.dictionaries(KEYS, inner, max_size=6)),
    max_leaves=40)


def reference_json(doc, indent: str = "") -> str:
    """The report layout, written the simple way: json.dumps(doc, indent=2),
    except that a non-empty list or tuple of exact ints is one line."""
    inner = indent + "  "
    if isinstance(doc, dict) and doc:
        items = [json.dumps(key if isinstance(key, str) else json.dumps(key))
                 + ": " + reference_json(value, inner) for key, value in doc.items()]
    elif isinstance(doc, (list, tuple)) and doc:
        if all(type(x) is int for x in doc):
            return json.dumps(list(doc))
        items = [reference_json(x, inner) for x in doc]
    else:
        return json.dumps(doc)
    brackets = "{}" if isinstance(doc, dict) else "[]"
    return brackets[0] + "\n" + ",\n".join(inner + item for item in items) \
        + "\n" + indent + brackets[1]


class TestToJson:
    """The report emitter against its reference, reference_json."""

    @given(DOCUMENTS)
    @settings(max_examples=400, deadline=None)
    def test_equals_reference(self, doc):
        assert to_json(doc) == reference_json(doc)

    @given(DOCUMENTS)
    @settings(max_examples=400, deadline=None)
    def test_layout_never_changes_content(self, doc):
        text = json.dumps(doc)
        assume("NaN" not in text)  # NaN != NaN, so a NaN document never compares equal
        assert json.loads(to_json(doc)) == json.loads(text)

    @pytest.mark.parametrize("doc", [
        [1, True], [None, 2, False], {}, [], [[], {}], {"a": {"b": [[{}]]}},
        {1: "x", True: 2.5, None: -0.0, 1.5: [1e16]}, (1, (2,)), Pair(3, [4]),
        {"n": Level.HIGH, Level.LOW: "k"}, [math.nan, math.inf, -math.inf],
        [Level.LOW, 2], {"d": {"0": [1, 5, 9], "1": []}}, [[-1], (2, 3)],
    ], ids=repr)
    def test_named_cases(self, doc):
        assert to_json(doc) == reference_json(doc)

    @given(st.dictionaries(st.integers(), st.lists(st.integers(), max_size=6), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_int_lists_equal_reference(self, raw):
        lists = IntLists((str(k), v) for k, v in raw.items())
        doc = {"labels": {"domains": lists}, "nested": [[lists]]}
        assert to_json(doc) == reference_json(doc)

    def test_label_domains_are_int_lists(self):
        doc = LabelDomain("vertex", {2: (4, 9), 0: ()}, 10).to_document()
        assert type(doc["domains"]) is IntLists
        assert doc["domains"] == {"0": [], "2": [4, 9]}
        assert list(doc["domains"]) == ["0", "2"]

    def test_int_list_is_one_line(self):
        assert to_json({"a": [1, 5, 9], "b": (7,)}) == '{\n  "a": [1, 5, 9],\n  "b": [7]\n}'

    def test_bool_in_int_list_is_true(self):
        assert to_json([1, True]) == "[\n  1,\n  true\n]"

    @given(st.lists(st.text(st.characters(exclude_categories=())) | st.integers()
                    | st.sampled_from(["%", "%d", '"', '%s"%%', "\\"]),
                    min_size=1, max_size=4, unique=True), st.data())
    @settings(max_examples=200, deadline=None)
    def test_records_equal_json(self, keys, data):
        """A list of flat dicts with the same keys in the same order and
        exact-int values is written from one template, byte for byte as json
        writes it, at any depth."""
        value = st.integers() | st.sampled_from([2**64, -(2**200), 10**40])
        rows = data.draw(st.lists(st.lists(value, min_size=len(keys), max_size=len(keys)),
                                  min_size=1, max_size=8))
        records = [dict(zip(keys, row)) for row in rows]
        assert cli._records(records, "\n  ") is not None
        for doc in (records, {"edges": records}, [{"x": tuple(records)}, 1]):
            assert to_json(doc) == json.dumps(doc, indent=2) == reference_json(doc)

    @pytest.mark.parametrize("records", [
        [{"a": 1}, {"a": True}], [{"a": None}], [{"a": 1, "b": "x"}],
        [{"a": 1, "b": 2}, {"b": 2, "a": 1}], [{"a": 1}, {}], [{}, {"a": 1}],
        [{"a": 1}, {"a": [1]}], [{1: 5}, {True: 5}], [{1: 5}, {1.0: 5}],
        [{"a": 1}, IntLists(a=1)], [{"a": 1}, 2], [{Level.LOW: 1}], [{"a": Level.LOW}],
    ], ids=repr)
    def test_other_record_lists_fall_back(self, records):
        """Other values, another key order, an empty dict, a nested list, keys
        equal across rows but written differently, or a row that is not a
        plain dict: the list takes the recursive path."""
        assert cli._records(records, "\n  ") is None
        assert to_json(records) == reference_json(records)
        assert json.loads(to_json(records)) == json.loads(json.dumps(records))

    @pytest.mark.parametrize("doc", [{(1, 2): 0}, [object()], {"a": {1, 2}}], ids=repr)
    def test_unserializable_raises_like_json(self, doc):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError):
            to_json(doc)


class TestRun:
    def test_report_written_and_ok(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["run", "--algo", "random-coloring", "--gen", "gnp:n=64,p=0.05",
                     "--seed", "7", "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["algorithm"] == "random-coloring"
        assert doc["metrics"]["verdicts"][0]["ok"]
        assert doc["run"]["comm_rounds"] == 1

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["run", "--algo", "delta2-coloring", "--gen", "gnp:n=128,p=0.03",
                "--seed", "3", "--out"]
        assert main(argv + [str(a)]) == EXIT_OK
        assert main(argv + [str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_param_config_error(self, capsys):
        code = main(["run", "--algo", "random-coloring", "--gen", "gnp:n=16,p=0.1",
                     "--param", "bogus=1"])
        assert code == EXIT_CONFIG

    def test_unknown_flag_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--algo", "random-coloring", "--gen", "gnp:n=16,p=0.1",
                  "--frobnicate"])
        assert exc.value.code == EXIT_CONFIG

    def test_forest_report_carries_annotated_edge_list(self, tmp_path):
        out = tmp_path / "f.json"
        assert main(["run", "--algo", "forest-id", "--gen", "clique:n=4",
                     "--seed", "2", "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert len(doc["edges"]) == 6
        assert {"u", "v", "label", "assigner"} <= set(doc["edges"][0])

    def test_dominating_report_carries_annotated_edge_list(self, tmp_path):
        out = tmp_path / "d.json"
        assert main(["run", "--algo", "dominating-edge", "--gen",
                     "gnp:n=32,p=0.1", "--seed", "2", "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        g = generate(GeneratorSpec("gnp", 32, p=0.1, seed=2))
        assert [(row["u"], row["v"]) for row in doc["edges"]] == list(g.edges)
        assert len(doc["class_of"]) == g.m
        assert {doc["class_of"][e] for e in doc["dominating"]} <= set(
            range(1, doc["params"]["classes"] + 1))

    def test_p_exceeding_delta_rejected(self):
        code = main(["run", "--algo", "defective-coloring",
                     "--gen", "clique:n=4", "--param", "p=9"])
        assert code == EXIT_CONFIG

    def test_graph_file_input(self, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text("p 4 3\n0 1\n1 2\n2 3\n")
        out = tmp_path / "r.json"
        code = main(["run", "--algo", "forest-id", "--graph", str(f),
                     "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["graph"]["n"] == 4
        assert doc["run"]["comm_rounds"] == 2

    def test_csv_format(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(["run", "--algo", "kuhn-edge", "--gen", "gnp:n=32,p=0.2",
                     "--param", "i=2", "--out", str(out), "--format", "csv"])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("algorithm,graph,seed")
        assert lines[1].startswith("kuhn-edge,")

    def test_arboricity_violation_exit(self, capsys):
        code = main(["run", "--algo", "arboricity-coloring",
                     "--gen", "clique:n=8", "--param", "a=1"])
        assert code == EXIT_VERDICT

    @pytest.mark.parametrize("n,witness", [
        (5, "[0, 1, 2, 3, 4])"),
        (16, f"{list(range(16))})"),
        (20, f"{list(range(16))}...)"),
    ], ids=["short", "exactly-16", "cut"])
    def test_arboricity_witness_ellipsis_only_when_cut(self, capsys, n, witness):
        code = main(["run", "--algo", "arboricity-coloring",
                     "--gen", f"clique:n={n}", "--param", "a=1"])
        assert code == EXIT_VERDICT
        assert capsys.readouterr().err.endswith(f"(witness: {witness}\n")

    def test_uncertified_witness_is_a_failed_run(self, tmp_path, capsys, monkeypatch):
        """A refusal whose witness fails verify.check_arboricity_witness is the
        run's fault, not a verdict: exit 3, one stderr line, no report."""
        def refuse(g, a, eps=1.0):
            raise decomposition.ArboricityError("arboricity above 1", (0, 5))

        monkeypatch.setattr(decomposition, "h_partition", refuse)
        out = tmp_path / "r.json"
        assert main(["run", "--algo", "arboricity-coloring", "--gen", "path:n=8",
                     "--param", "a=1", "--out", str(out)]) == EXIT_INCOMPLETE
        assert capsys.readouterr().err == (
            "error: arboricity above 1 (uncertified witness: "
            "2 vertices induce 0 edges, not more than 1*(2-1))\n")
        assert not out.exists()

    def test_broken_pipeline_invariant_is_a_failed_run(self, tmp_path, capsys, monkeypatch):
        """An improper coloring reaching a cover-free reduction step is a
        broken invariant of the run, not a configuration error: run exits 3
        with one stderr line and no report, and bench notes it on the row."""
        shared = frozenset(range(3))  # every colour's point set is the same
        monkeypatch.setattr(PolyFamily, "elements", lambda self, index: shared)
        out = tmp_path / "r.json"
        assert main(["run", "--algo", "delta2-coloring", "--gen", "path:n=400",
                     "--seed", "0", "--out", str(out)]) == EXIT_INCOMPLETE
        message = "vertex 0: no uncovered element left; input coloring improper?"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        suite = tmp_path / "s.json"
        suite.write_text(json.dumps([{"name": "reducing", "algo": "delta2-coloring",
                                      "gen": "path:n=400", "seeds": [0]}]))
        table = tmp_path / "table.txt"
        assert main(["bench", "--suite", str(suite), "--out", str(table)]) == EXIT_VERDICT
        row = table.read_text().splitlines()[1]
        assert "error" in row and message in row

    def test_domain_floor_from_the_invocation(self, tmp_path, monkeypatch):
        """delta2-coloring's floor is the given delta (4), not the path's max
        degree (2): a 3-label domain violates it."""
        entry = cli.generic_delta2_coloring

        def shrunk(g, **kwargs):
            res = entry(g, **kwargs)
            res.domains.domains[0] = res.domains.domains[0][:3]
            return res

        monkeypatch.setattr(cli, "generic_delta2_coloring", shrunk)
        out = tmp_path / "r.json"
        assert main(["run", "--algo", "delta2-coloring", "--gen", "path:n=6",
                     "--param", "delta=4", "--out", str(out)]) == EXIT_VERDICT
        verdicts = {v["name"]: v for v in json.loads(out.read_text())["metrics"]["verdicts"]}
        assert verdicts["domain-floor"] == {"name": "domain-floor", "ok": False,
                                            "status": "violated",
                                            "detail": "min domain 3 vs floor 4"}

    @pytest.mark.parametrize("tag,gen,extra", [
        ("random-coloring", "gnp:n=16,p=0.2", []),
        ("arboricity-coloring", "forest-union:n=16,a=2", ["--param", "a=2"]),
        ("edge-random", "gnp:n=16,p=0.2", []),
    ])
    @pytest.mark.parametrize("c,message", [
        ("inf", "parameter c must be finite and > 0"),
        ("nan", "parameter c must be finite and > 0"),
        ("-1", "parameter c must be finite and > 0"),
        ("0", "parameter c must be finite and > 0"),
        ("1e15", "more than 1024 draws per node"),
        ("1e7", "more than 1024 draws per node"),
    ])
    def test_bad_draw_constant_config_error(self, tag, gen, extra, c, message, capsys):
        code = main(["run", "--algo", tag, "--gen", gen, "--param", f"c={c}", *extra])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_label_budget_taken_as_given(self, tmp_path, capsys):
        base = ["run", "--algo", "network-decomposition", "--gen", "gnp:n=32,p=0.1"]
        assert main(base + ["--param", "label_budget=0"]) == EXIT_CONFIG
        assert "label_budget must be >= 1" in capsys.readouterr().err
        out = tmp_path / "r.json"
        main(base + ["--param", "label_budget=1", "--out", str(out)])
        assert json.loads(out.read_text())["metrics"]["label_budget"] == 1

    def test_label_budget_checked_before_the_run(self, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("ran before the label_budget check")

        monkeypatch.setattr(cli, "generic_network_decomposition", unreachable)
        assert main(["run", "--algo", "network-decomposition", "--gen", "gnp:n=32,p=0.1",
                     "--param", "label_budget=0"]) == EXIT_CONFIG
        assert "label_budget must be >= 1" in capsys.readouterr().err

    def test_collector_paused_through_report_and_emit(self, monkeypatch):
        """cmd_run builds and writes its report with the cyclic collector
        paused, and restores it afterwards."""
        seen = []
        for name in ("build_report", "_emit"):
            def spy(*args, _real=getattr(cli, name), **kwargs):
                seen.append(gc.isenabled())
                return _real(*args, **kwargs)

            monkeypatch.setattr(cli, name, spy)
        assert gc.isenabled()
        assert main(["run", "--algo", "delta2-coloring", "--gen", "path:n=5",
                     "--out", os.devnull]) == EXIT_OK
        assert seen == [False, False] and gc.isenabled()

    def test_network_decomposition_defaults_are_the_entry_points(self, monkeypatch):
        """Without B, c and label_budget the verifier gets the diameter bound
        2*default_radius_cap(n) and the budget c*ceil(4*log2 n), for
        generic_network_decomposition's own default c."""
        check = verify.check_network_decomposition
        calls = []

        def spy(g, dom, diameter_bound, label_budget):
            calls.append((diameter_bound, label_budget))
            return check(g, dom, diameter_bound, label_budget)

        monkeypatch.setattr(verify, "check_network_decomposition", spy)
        assert main(["run", "--algo", "network-decomposition", "--gen", "gnp:n=32,p=0.1",
                     "--out", os.devnull]) == EXIT_OK
        c = inspect.signature(generic_network_decomposition).parameters["c"].default
        assert calls == [(2 * default_radius_cap(32), c * math.ceil(4 * math.log2(32)))]

    def test_network_decomposition_bound_comes_from_the_invocation(self, tmp_path,
                                                                   monkeypatch):
        """A run that claims twice its radius cap B=1, with clusters of four
        path vertices (weak diameter 3), fails the diameter bound 2B = 2."""
        real = cli.generic_network_decomposition

        def wide(g, seed=0, radius_cap=None, **params):
            res = real(g, seed=seed, radius_cap=radius_cap, **params)
            domains = {v: (v // 4, 3 + v // 4) for v in range(g.n)}
            return replace(res, domains=LabelDomain(kind="vertex", domains=domains,
                                                    palette=6, stride=3),
                           params={**res.params, "radius_cap": 2 * radius_cap})

        monkeypatch.setattr(cli, "generic_network_decomposition", wide)
        out = tmp_path / "r.json"
        assert main(["run", "--algo", "network-decomposition", "--gen", "path:n=12",
                     "--param", "B=1", "--out", str(out)]) == EXIT_VERDICT
        doc = json.loads(out.read_text())
        assert (doc["params"]["radius_cap"], doc["metrics"]["diameter_bound"]) == (2, 2)
        verdict = doc["metrics"]["verdicts"][0]
        assert verdict["detail"] == "label 0 holders exceed weak diameter 2"

    def test_cv3_expansion_delta_zero_config_error(self, capsys):
        """A given delta of 0 reaches expand_to_generic instead of falling back
        to the max degree."""
        code = main(["run", "--algo", "cv3-expansion", "--gen", "path:n=4",
                     "--param", "delta=0"])
        assert code == EXIT_CONFIG
        assert "delta must be positive, got 0" in capsys.readouterr().err

    def test_kuhn_edge_checks_its_own_bound(self, tmp_path, monkeypatch):
        """The defect bound 4i-2 comes from --param i, not from the result:
        colors of defect 3 fail i=1 even when the result claims i=25."""
        real = cli.kuhn_defective_edge_coloring

        def claims_25(g, i, seed=0):
            res = real(g, i=i, seed=seed)
            return replace(res, colors=(0,) * g.m, params={**res.params, "i": 25})

        monkeypatch.setattr(cli, "kuhn_defective_edge_coloring", claims_25)
        star = tmp_path / "star.edges"
        star.write_text("0 1\n0 2\n0 3\n0 4\n")
        out = tmp_path / "r.json"
        assert main(["run", "--algo", "kuhn-edge", "--graph", str(star), "--param", "i=1",
                     "--out", str(out)]) == EXIT_VERDICT
        metrics = json.loads(out.read_text())["metrics"]
        assert (metrics["defect_bound"], metrics["measured_defect"]) == (2, 3)
        assert not metrics["verdicts"][0]["ok"]

    def test_dominating_class_counterexample_is_an_edge_of_g(self, tmp_path, monkeypatch):
        """A class that is not a matching is reported at an edge id of G, not
        at its index in the class's own subgraph."""
        real = cli.dominating_edge_coloring

        def one_bad_class(g, seed=0, **params):
            res = real(g, seed=seed, **params)
            dominating = frozenset({2, 3, 5})  # (2,3), (3,4), (5,6): 2 and 3 meet
            domains = {e: (0, 1, 2) for e in sorted(dominating)}
            return replace(res, dominating=dominating,
                           class_of=tuple(int(e in dominating) for e in range(g.m)),
                           domains=LabelDomain(kind="edge", domains=domains, palette=3,
                                               stride=3),
                           params={**res.params, "classes": 1})

        monkeypatch.setattr(cli, "dominating_edge_coloring", one_bad_class)
        out = tmp_path / "r.json"
        assert main(["run", "--algo", "dominating-edge", "--gen", "path:n=7",
                     "--out", str(out)]) == EXIT_VERDICT
        doc = json.loads(out.read_text())
        verdict = doc["metrics"]["verdicts"][1]
        assert (verdict["name"], verdict["ok"]) == ("class-1-matching", False)
        assert verdict["counterexample"] == 3
        assert verdict["detail"] == "edge 3 collides inside the matching"
        assert (doc["edges"][3]["u"], doc["edges"][3]["v"]) == (3, 4)

    @staticmethod
    def _dominating_without(monkeypatch, drop):
        """Patch the dominating-edge entry point to leave out of its result
        the dominating edges ``drop(res)`` names."""
        real = cli.dominating_edge_coloring

        def patched(g, seed=0, **params):
            res = real(g, seed=seed, **params)
            gone = drop(res)
            domains = {e: d for e, d in res.domains.domains.items() if e not in gone}
            return replace(res, dominating=res.dominating - gone,
                           domains=replace(res.domains, domains=domains))

        monkeypatch.setattr(cli, "dominating_edge_coloring", patched)

    def test_dominating_classes_come_from_the_graph(self, tmp_path, monkeypatch):
        """A run that reports one class fewer, and drops that class, still has
        every ceil(sqrt(max_degree)) class checked, and the report fails."""
        def last_class(res):
            s = res.params["classes"]
            res.params["classes"] = s - 1
            return frozenset(e for e in res.dominating if res.class_of[e] == s)

        self._dominating_without(monkeypatch, last_class)
        out = tmp_path / "r.json"
        assert main(["run", "--algo", "dominating-edge", "--gen", "gnp:n=256,p=0.02",
                     "--out", str(out)]) == EXIT_VERDICT
        doc = json.loads(out.read_text())
        s = math.ceil(math.sqrt(doc["graph"]["max_degree"]))
        assert s >= 2 and doc["params"]["classes"] == s - 1
        verdicts = doc["metrics"]["verdicts"][1:]
        assert [v["name"] for v in verdicts] == [f"class-{i}-matching" for i in range(1, s + 1)]
        assert [v["ok"] for v in verdicts] == [True] * (s - 1) + [False]

    def test_dominating_class_must_be_maximal_in_its_class(self, tmp_path, monkeypatch):
        """Dropping one matched edge of class 1 leaves a class-1 edge that
        could still be matched, and the class-1 verdict names it."""
        def first_of_class_1(res):
            return frozenset({min(e for e in res.dominating if res.class_of[e] == 1)})

        self._dominating_without(monkeypatch, first_of_class_1)
        out = tmp_path / "r.json"
        assert main(["run", "--algo", "dominating-edge", "--gen", "gnp:n=256,p=0.02",
                     "--out", str(out)]) == EXIT_VERDICT
        doc = json.loads(out.read_text())
        verdict = doc["metrics"]["verdicts"][1]
        assert (verdict["name"], verdict["ok"]) == ("class-1-matching", False)
        rows, class_of, e = doc["edges"], doc["class_of"], verdict["counterexample"]
        bad = rows[e]
        covered = {x for d in doc["dominating"] if class_of[d] == 1
                   for x in (rows[d]["u"], rows[d]["v"])}
        assert class_of[e] == 1 and e not in doc["dominating"]
        assert bad["u"] not in covered and bad["v"] not in covered
        assert verdict["detail"] == (f"edge {verdict['counterexample']}=({bad['u']},{bad['v']}) "
                                     "could still be added")

    def test_dominating_edge_builds_no_graph(self, monkeypatch):
        """The class matchings and their checks run on G's own edge ids."""
        g = generate(GeneratorSpec("gnp", 256, p=0.02, seed=0))
        from_edges = Graph.from_edges
        builds = []

        def counting(n, edges):
            builds.append(n)
            return from_edges(n, edges)

        monkeypatch.setattr(Graph, "from_edges", staticmethod(counting))
        doc = build_report("dominating-edge", g, {"kind": "test"}, 0, {})
        assert doc["status"] == "ok" and doc["params"]["classes"] >= 2
        assert builds == []

    def test_forest_default_eps_is_the_entry_points(self, monkeypatch):
        """forest-hpartition without eps bounds the labels by floor((2+eps)*a)
        for forest_decomposition's own default eps."""
        check = verify.check_forest_labeling
        bounds = []

        def spy(g, edge_labels, assigner, label_count):
            bounds.append(label_count)
            return check(g, edge_labels, assigner, label_count)

        monkeypatch.setattr(verify, "check_forest_labeling", spy)
        assert main(["run", "--algo", "forest-hpartition", "--gen", "forest-union:n=32,a=2",
                     "--param", "a=2", "--out", os.devnull]) == EXIT_OK
        eps = inspect.signature(forest_decomposition).parameters["eps"].default
        assert bounds == [math.floor((2 + eps) * 2)]

    @pytest.mark.parametrize("tag,gen,params", [
        ("forest-id", "gnp:n=32,p=0.1", []),
        ("forest-hpartition", "forest-union:n=32,a=2", ["--param", "a=2"]),
        ("forest-hpartition", "forest-union:n=32,a=2", ["--param", "a=2", "--param", "eps=0.5"]),
    ])
    def test_forest_bound_comes_from_the_invocation(self, tmp_path, monkeypatch,
                                                    tag, gen, params):
        """A result that claims one forest more than the bound and uses it on
        edge 0 fails the labeling check."""
        real = cli.forest_decomposition

        def inflated(g, **kwargs):
            labeling, report = real(g, **kwargs)
            count = labeling.forest_count + 1
            return replace(labeling, edge_labels=(count, *labeling.edge_labels[1:]),
                           forest_count=count), report

        monkeypatch.setattr(cli, "forest_decomposition", inflated)
        out = tmp_path / "r.json"
        assert main(["run", "--algo", tag, "--gen", gen, *params,
                     "--out", str(out)]) == EXIT_VERDICT
        verdict = json.loads(out.read_text())["metrics"]["verdicts"][0]
        assert (verdict["ok"], verdict["counterexample"]) == (False, 0)

    def test_graph_directory_config_error(self, tmp_path, capsys):
        code = main(["run", "--algo", "forest-id", "--graph", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")

    def test_truncated_edge_list_config_error(self, tmp_path, capsys):
        """A file cut at a line boundary falls short of its header's m."""
        f = tmp_path / "g.edges"
        f.write_text("p 4 3\n0 1\n1 2\n")
        out = tmp_path / "r.json"
        assert main(["run", "--algo", "forest-id", "--graph", str(f),
                     "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: line 1: header declares m=3, but the file has 2 edge lines\n")
        assert not out.exists()

    def test_long_header_config_error(self, tmp_path, capsys):
        """A header has exactly three tokens, as a "u v" line has two."""
        f = tmp_path / "g.edges"
        f.write_text("p 3 1 junk\n0 1\n")
        assert main(["run", "--algo", "forest-id", "--graph", str(f)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: line 1: malformed header 'p 3 1 junk'\n"

    @pytest.mark.parametrize("source", ["--graph=", "--gen="])
    def test_empty_source_config_error(self, source, capsys):
        assert main(["run", "--algo", "forest-id", source]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_all_algorithms_reachable(self, tmp_path):
        """Every registered tag executes end to end from the CLI, on a small
        graph and on the empty graph."""
        gens = {
            "cv3-expansion": "random-tree:n=32",
            "arboricity-coloring": "forest-union:n=32,a=2",
            "forest-hpartition": "forest-union:n=32,a=2",
        }
        params = {
            "defective-coloring": ["--param", "p=1"],
            "kuhn-edge": ["--param", "i=1"],
            "arboricity-coloring": ["--param", "a=2"],
            "forest-hpartition": ["--param", "a=2"],
        }
        for tag in ALGORITHMS:
            for gen in (gens.get(tag, "gnp:n=32,p=0.1"), "path:n=0"):
                out = tmp_path / f"{tag}.json"
                argv = ["run", "--algo", tag, "--gen", gen,
                        "--seed", "1", "--out", str(out)]
                argv += params.get(tag, [])
                assert main(argv) == EXIT_OK, (tag, gen)
                doc = json.loads(out.read_text())
                assert doc["status"] == "ok"
                if gen == "path:n=0":
                    assert doc["run"]["rounds"] == 0, tag


# A repetition factor that would allocate or loop without bound.
HUGE_PARAMS = [
    ("network-decomposition", "c", 100_000_000, "c must be in [2, 1024]"),
    ("dominating-edge", "c", 1_000_000_000, "c must be in [3, 1024]"),
    ("dominating-edge", "t", 1_000_000_000, "t must be in [2, 1024]"),
    ("delta2-coloring", "delta", 1_000_000_000, "delta must be at most 65536"),
    ("defective-coloring", "delta", 1_000_000_000, "delta must be at most 65536"),
    ("cv3-expansion", "delta", 1_000_000_000, "delta must be at most 65536"),
    ("forest-hpartition", "a", 1_000_000_000, "a must be at most 1024"),
]
REQUIRED = {"defective-coloring": {"p": 1}}  # params a tag needs besides the huge one


def limited_cli(argv):
    """genlabel in a child process limited to 2 GB of address space and 60 s,
    so a run that grows or loops without bound fails alone."""
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from genlabel.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    src = Path(genlabel.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})


class TestHugeParams:
    @pytest.mark.parametrize("tag,key,value,message", HUGE_PARAMS)
    def test_run_config_error(self, tag, key, value, message):
        params = {**REQUIRED.get(tag, {}), key: value}
        proc = limited_cli(["run", "--algo", tag, "--gen", "path:n=3",
                            *[f"--param={k}={v}" for k, v in params.items()]])
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr == f"error: {message}, got {value}\n"

    def test_huge_radius_cap_runs(self):
        """B has no upper bound: the sweep sizes its work by the radii drawn,
        not by the cap, so B=10**9 runs within the limits."""
        proc = limited_cli(["run", "--algo", "network-decomposition", "--gen",
                            "gnp:n=64,p=0.1", "--param", "B=1000000000", "--out", os.devnull])
        assert proc.returncode == EXIT_OK, proc.stderr

    def test_huge_shared_domains_run(self):
        """cv3-expansion's vertices share three domain objects of delta labels
        each, so the check builds three sets, not one per vertex, and a
        2,000-vertex tree at the largest delta runs within the limits."""
        proc = limited_cli(["run", "--algo", "cv3-expansion", "--gen", "random-tree:n=2000",
                            "--param", f"delta={MAX_DELTA}", "--out", os.devnull])
        assert proc.returncode == EXIT_OK, proc.stderr

    def test_bench_row_error_note(self, tmp_path):
        suite = tmp_path / "s.json"
        suite.write_text(json.dumps([{"name": f"row{i}", "algo": tag, "gen": "path:n=3",
                                      "params": {**REQUIRED.get(tag, {}), key: value}}
                                     for i, (tag, key, value, _) in enumerate(HUGE_PARAMS)]))
        out = tmp_path / "table.txt"
        proc = limited_cli(["bench", "--suite", str(suite), "--out", str(out)])
        assert proc.returncode == EXIT_VERDICT
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == len(HUGE_PARAMS)
        for row, (_, _, value, message) in zip(rows, HUGE_PARAMS):
            assert "error" in row and f"{message}, got {value}" in row
        assert "Traceback" not in proc.stderr


class TestHugeDegree:
    """A star whose own max degree is above MAX_DELTA, with no delta given:
    the cover-free pipeline refuses it before sizing a prime by it, and the
    one-round colorings, which size nothing by it, still run."""

    @pytest.fixture(scope="class")
    def star(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("star") / "star.edges"
        path.write_text("".join(f"0 {v}\n" for v in range(1, MAX_DELTA + 2)))
        return path

    @pytest.mark.parametrize("tag", ["delta2-coloring", "defective-coloring"])
    def test_pipeline_config_error(self, star, tag):
        proc = limited_cli(["run", "--algo", tag, "--graph", str(star),
                            *[f"--param={k}={v}" for k, v in REQUIRED.get(tag, {}).items()]])
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr == (f"error: max degree must be at most {MAX_DELTA} for the "
                               f"cover-free pipeline, got {MAX_DELTA + 1}\n")

    @pytest.mark.parametrize("tag,params", [("random-coloring", []),
                                            ("kuhn-edge", ["--param=i=1"])],
                             ids=["random-coloring", "kuhn-edge"])
    def test_one_round_runs(self, star, tag, params, tmp_path):
        proc = limited_cli(["run", "--algo", tag, "--graph", str(star), *params,
                            "--format", "csv", "--out", str(tmp_path / "r.csv")])
        assert proc.returncode == EXIT_OK, proc.stderr


class TestHugeLineGraph:
    """The line-graph tags on a 20,000-leaf star, whose line graph K_20000 has
    about 2*10^8 edges: refused before it is built, with exit 2."""

    @pytest.fixture(scope="class")
    def star(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("star") / "star.edges"
        path.write_text("".join(f"0 {v}\n" for v in range(1, 20_001)))
        return path

    @pytest.mark.parametrize("tag", ["edge-random", "edge-delta2", "dominating-edge"])
    def test_config_error(self, star, tag):
        proc = limited_cli(["run", "--algo", tag, "--graph", str(star)])
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr == (f"error: line graph must have at most {MAX_LINE_GRAPH_EDGES} "
                               f"edges, got {20_000 * 19_999 // 2}\n")


class TestHugeGraph:
    """An input of a few bytes that asks for a graph above MAX_GRAPH_SIZE
    vertices or generated edges is refused before the graph is built: exit 2
    with one error line, within a second."""

    @pytest.mark.parametrize("source,text,message", [
        ("--gen=clique:n=10000", None,
         f"clique graph would have about 49995000 edges, more than {MAX_GRAPH_SIZE}"),
        ("--graph", "p 100000000 0\n",
         f"vertex count must be in [0, {MAX_GRAPH_SIZE}], got 100000000"),
        ("--graph", "0 100000000\n",
         f"vertex count must be in [0, {MAX_GRAPH_SIZE}], got 100000001"),
    ], ids=["clique", "header", "vertex-id"])
    def test_config_error(self, source, text, message, tmp_path):
        argv = ["run", "--algo", "forest-id", source]
        if text is not None:
            path = tmp_path / "g.edges"
            path.write_text(text)
            argv.append(str(path))
        start = time.perf_counter()
        proc = limited_cli(argv)
        assert time.perf_counter() - start < 1.0
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr == f"error: {message}\n"

    def test_gnp_expected_edges(self):
        with pytest.raises(ConfigError, match="gnp graph would have about 2499750 edges"):
            parse_gen_spec("gnp:n=10000,p=0.05")
        assert parse_gen_spec("gnp:n=100000,p=0.0001").n == 100_000


# A valid value for every optional --param on a small graph, the report field
# that records it and the value recorded there.  forest-hpartition records
# eps only through its palette floor((2 + eps) * a), with a = 2.
OPTIONAL_PARAMS = [
    ("cv3-expansion", "delta", "9", "params.delta", 9),
    ("random-coloring", "c", "3.5", "params.c", 3.5),
    ("random-coloring", "delta", "9", "params.delta", 9),
    ("delta2-coloring", "delta", "9", "params.delta", 9),
    ("defective-coloring", "delta", "9", "params.delta", 9),
    ("arboricity-coloring", "eps", "0.5", "params.eps", 0.5),
    ("arboricity-coloring", "c", "3.5", "params.c", 3.5),
    ("network-decomposition", "c", "3", "params.c", 3),
    ("network-decomposition", "B", "4", "params.radius_cap", 4),
    ("network-decomposition", "label_budget", "500", "metrics.label_budget", 500),
    ("forest-hpartition", "eps", "0.5", "metrics.problem_domain_size", 5),
    ("edge-random", "c", "3.5", "params.c", 3.5),
    ("dominating-edge", "c", "4", "params.c", 4),
    ("dominating-edge", "t", "2", "params.t", 2),
]
SMALL_GEN = {"cv3-expansion": "random-tree:n=32",
             "arboricity-coloring": "forest-union:n=32,a=2",
             "forest-hpartition": "forest-union:n=32,a=2"}
SMALL_REQUIRED = {**REQUIRED, "arboricity-coloring": {"a": 2}, "forest-hpartition": {"a": 2},
                  "kuhn-edge": {"i": 1}}


class TestOptionalParams:
    def test_table_covers_every_optional_key(self):
        optional = {(tag, key) for tag, entry in ALGORITHMS.items()
                    for key, (_, required) in entry.schema.items() if not required}
        assert {(tag, key) for tag, key, *_ in OPTIONAL_PARAMS} == optional

    @pytest.mark.parametrize("tag,key,value,field,recorded", OPTIONAL_PARAMS)
    def test_value_reaches_report(self, tag, key, value, field, recorded, tmp_path):
        out = tmp_path / "r.json"
        params = {**SMALL_REQUIRED.get(tag, {}), key: value}
        argv = ["run", "--algo", tag, "--gen", SMALL_GEN.get(tag, "gnp:n=32,p=0.1"),
                "--out", str(out), *[f"--param={k}={v}" for k, v in params.items()]]
        assert main(argv) == EXIT_OK
        section, name = field.split(".")
        assert json.loads(out.read_text())[section][name] == recorded

    def test_dominating_edge_max_rounds_is_unknown(self, capsys):
        code = main(["run", "--algo", "dominating-edge", "--gen", "gnp:n=32,p=0.1",
                     "--param", "max_rounds=5"])
        assert code == EXIT_CONFIG
        assert "unknown parameter 'max_rounds'" in capsys.readouterr().err


# Keys a v3 report no longer has, each restated by another fact of it.
RESTATED = {"params": {"value_range", "q_final", "stride", "rounds_total", "forest_count",
                       "palette_size"},
            "metrics": {"contingency_factor_float"}}
# Tags whose report lists no per-entity domains: their rule is in the README.
UNLISTED = {"cv3-expansion", "forest-id", "forest-hpartition", "kuhn-edge"}


class TestReportV3:
    """Every report states each fact once, in _body's key order, and writes
    each integer list on one line."""

    @pytest.mark.parametrize("tag", sorted(ALGORITHMS))
    def test_each_fact_once(self, tag, tmp_path):
        out = tmp_path / "r.json"
        argv = ["run", "--algo", tag, "--gen", SMALL_GEN.get(tag, "gnp:n=32,p=0.1"),
                "--out", str(out),
                *[f"--param={k}={v}" for k, v in SMALL_REQUIRED.get(tag, {}).items()]]
        assert main(argv) == EXIT_OK
        text = out.read_text()
        doc = json.loads(text)
        assert text == reference_json(doc) + "\n"
        assert doc["schema"] == "genlabel-report-v3"
        assert list(doc["run"]) == ["rounds", "comm_rounds", "messages_total", "incomplete"]
        assert "rounds" not in doc["metrics"] and "owners" not in doc["params"]
        for section, keys in RESTATED.items():
            assert not keys & set(doc[section]), section
        keys = list(doc)
        assert keys[:7] == ["schema", "algorithm", "seed", "graph", "params", "run", "failed"]
        assert keys[-2:] == ["metrics", "status"]
        fields = keys[7:-2]
        assert "pairs" not in fields
        assert ("labels" in fields) == (tag not in UNLISTED)
        assert "labels" not in fields[:-1]
        if tag == "dominating-edge":
            assert fields == ["dominating", "class_of", "edges", "labels"]
            assert all(set(row) == {"u", "v"} for row in doc["edges"])
            assert doc["edges"]

    @pytest.mark.parametrize("argv,n,m", [
        (["--algo", "forest-id", "--graph", "STAR"], 301, 300),
        (["--algo", "cv3-expansion", "--gen", "random-tree:n=50", "--param", "delta=65536"],
         50, 49),
    ], ids=["forest-id-star", "cv3-expansion-delta"])
    def test_size_follows_the_graph(self, argv, n, m, tmp_path):
        """A report whose domains are stated by their rule grows with the
        graph, not with the domain sizes."""
        star = tmp_path / "star.edges"
        star.write_text("".join(f"0 {v}\n" for v in range(1, 301)))
        out = tmp_path / "r.json"
        argv = [str(star) if arg == "STAR" else arg for arg in argv]
        assert main(["run", *argv, "--out", str(out)]) == EXIT_OK
        assert out.stat().st_size < 200 * (n + m) + 4096

    @pytest.mark.parametrize("tag,gen,params", [
        ("forest-id", "gnp:n=32,p=0.1", {}),
        ("forest-hpartition", "forest-union:n=32,a=2", {"a": 2, "eps": 0.5}),
        ("cv3-expansion", "random-tree:n=32", {"delta": 7}),
        ("kuhn-edge", "gnp:n=32,p=0.2", {"i": 2}),
    ])
    def test_rules_restate_the_domains(self, tag, gen, params, tmp_path):
        """The metrics of a tag without a labels block are those of the
        domains its rule gives: 1..palette for every forest edge, the residue
        class of v's color below the palette for cv3-expansion, and the
        C(ceil(max_degree/i)+1, 2) pair colors for kuhn-edge."""
        out = tmp_path / "r.json"
        assert main(["run", "--algo", tag, "--gen", gen, "--out", str(out),
                     *[f"--param={k}={v}" for k, v in params.items()]]) == EXIT_OK
        doc = json.loads(out.read_text())
        metrics, delta = doc["metrics"], doc["graph"]["max_degree"]
        palette = metrics["problem_domain_size"]
        if tag == "kuhn-edge":
            assert palette == math.comb(-(-delta // params["i"]) + 1, 2)
            assert max(doc["colors"]) < palette
            return
        if tag == "cv3-expansion":
            assert palette == 3 * params["delta"]
            domains = [[x for x in range(palette) if x % 3 == c] for c in doc["colors"]]
        else:
            bound = delta if tag == "forest-id" else math.floor((2 + params["eps"]) * params["a"])
            assert palette == bound
            assert all(1 <= row["label"] <= palette for row in doc["edges"])
            domains = [range(1, palette + 1)] * doc["graph"]["m"]
        assert metrics == verify.metrics(palette, [len(d) for d in domains],
                                         [verify.Verdict(**v) for v in metrics["verdicts"]])


SWEEP_GRAPHS = ["path:n=0", "path:n=1", "path:n=2", "clique:n=3", "gnp:n=6,p=0",
                "gnp:n=6,p=5e-324", "random-tree:n=7", "forest-union:n=5,a=1"]
SWEEP_STARS = [4, 5]  # leaf counts of the star edge-list files
SWEEP_REQUIRED = {"defective-coloring": {"p": 1}, "arboricity-coloring": {"a": 1},
                  "forest-hpartition": {"a": 2}, "kuhn-edge": {"i": 1}}


def sweep_params(tag: str, max_degree: int) -> list[dict]:
    """The params a tag runs with in the sweep: none besides the required
    ones, then each extreme value of each optional key the tag has."""
    schema = ALGORITHMS[tag].schema
    extremes = {"c": [{"c": 0.001}, {"c": 1024, **({"B": 1} if "B" in schema else {})}],
                "eps": [{"eps": 2}, {"eps": 0.01}, {"eps": 5e-324}],
                "delta": [{"delta": max_degree}],
                "i": [{"i": max_degree}]}
    variants = [{}] + [extra for key in schema for extra in extremes.get(key, [])]
    return [{**SWEEP_REQUIRED.get(tag, {}), **extra} for extra in variants]


class TestDegenerateSweep:
    """Every tag on tiny and degenerate graphs, with extreme params: each
    invocation exits 0, 1, 2 or 3, writes at most one error line and no
    traceback, and writes the same bytes when run twice.  Every label domain
    a tag builds holds each entity's labels as a strictly increasing tuple of
    ints."""

    @pytest.mark.parametrize("tag", list(ALGORITHMS))
    def test_tag(self, tag, tmp_path, capsys, monkeypatch):
        built, checked = [], 0
        post_init = LabelDomain.__post_init__

        def record(dom):
            post_init(dom)
            built.append(dom)

        monkeypatch.setattr(LabelDomain, "__post_init__", record)
        inputs = [(generate(parse_gen_spec(s)), ["--gen", s]) for s in SWEEP_GRAPHS]
        for leaves in SWEEP_STARS:
            star = tmp_path / f"star{leaves}.edges"
            star.write_text("".join(f"0 {v}\n" for v in range(1, leaves + 1)))
            inputs.append((load_edge_list(star.read_text()), ["--graph", str(star)]))
        for g, args in inputs:
            for params in sweep_params(tag, g.max_degree):
                argv = ["run", "--algo", tag, *args,
                        *[f"--param={k}={v}" for k, v in params.items()]]
                outputs = []
                for attempt in range(2):
                    out = tmp_path / f"r{attempt}.json"
                    out.unlink(missing_ok=True)
                    code = main(argv + ["--out", str(out)])
                    err = capsys.readouterr().err
                    assert code in (0, 1, 2, 3), argv
                    assert err.count("error:") <= 1 and "Traceback" not in err, argv
                    assert err.count("\n") == err.count("error:"), argv
                    outputs.append((code, err, out.read_bytes() if out.exists() else None))
                assert outputs[0] == outputs[1], argv
                for dom in built:
                    for d in dom.domains.values():
                        assert type(d) is tuple and all(type(x) is int for x in d), argv
                        assert all(a < b for a, b in zip(d, d[1:])), argv
                checked += len(built)
                built.clear()
        # the tags whose report states per-entity domains, cv3-expansion's by a rule
        assert bool(checked) == (tag not in ("forest-id", "forest-hpartition", "kuhn-edge"))


class TestUnwritableOut:
    """An --out that cannot be written is a configuration error, stated in
    one line, for run and for bench alike."""

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    @pytest.mark.parametrize("command", ["run", "bench"])
    def test_config_error(self, command, where, tmp_path, capsys):
        out = tmp_path / "missing" / "r.txt" if where == "missing-directory" else tmp_path
        if command == "run":
            argv = ["run", "--algo", "random-coloring", "--gen", "path:n=4"]
        else:
            suite = tmp_path / "s.json"
            suite.write_text(json.dumps([{"algo": "random-coloring", "gen": "path:n=4"}]))
            argv = ["bench", "--suite", str(suite)]
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1


class TestBench:
    def test_default_suite_covers_all_tags(self):
        assert {row["algo"] for row in DEFAULT_SUITE} == set(ALGORITHMS)
        assert len(DEFAULT_SUITE) >= 10

    def test_empty_suite_zero_exit(self, tmp_path, capsys):
        suite = tmp_path / "empty.json"
        suite.write_text("[]")
        assert main(["bench", "--suite", str(suite)]) == EXIT_OK

    def test_row_error_isolated(self, tmp_path):
        suite = tmp_path / "s.json"
        suite.write_text(json.dumps([
            {"name": "bad", "algo": "defective-coloring", "gen": "clique:n=4",
             "seeds": [0], "params": {"p": 9}},
            {"name": "good", "algo": "random-coloring", "gen": "gnp:n=32,p=0.1",
             "seeds": [0], "params": {}},
        ]))
        out = tmp_path / "table.txt"
        code = main(["bench", "--suite", str(suite), "--out", str(out)])
        assert code == EXIT_VERDICT
        table = out.read_text()
        assert "error" in table
        assert "good" in table and "1/1" in table

    def test_contingency_is_the_largest_over_seeds(self, tmp_path):
        """The contingency column is the row's worst seed, as rounds(max) is:
        seed 0 gives 128/7 here and seed 1 a smaller factor."""
        gen = "forest-union:n=256,a=2"
        factors = []
        for seed in (0, 1):
            g = generate(replace(parse_gen_spec(gen), seed=seed))
            doc = build_report("arboricity-coloring", g, {}, seed, {"a": 2})
            factors.append(doc["metrics"]["contingency_factor"])
        assert factors[0] == "128/7" and factors[1] != factors[0]
        suite = tmp_path / "s.json"
        suite.write_text(json.dumps([{"name": "arb", "algo": "arboricity-coloring", "gen": gen,
                                      "seeds": [0, 1], "params": {"a": 2}}]))
        out = tmp_path / "table.txt"
        assert main(["bench", "--suite", str(suite), "--out", str(out)]) == EXIT_OK
        header, row = out.read_text().splitlines()
        assert header.split()[3] == "contingency(max)"
        assert row.split()[3] == "128/7"

    def test_empty_domain_contingency_ranks_highest(self):
        """verify.metrics writes 0/1 for an empty smallest domain, the worst case."""
        assert max(["3/1", "0/1", "2209/34"], key=cli._contingency_rank) == "0/1"
        assert max(["2209/36", "2209/34"], key=cli._contingency_rank) == "2209/34"

    def test_suite_params_checked_against_schema(self, tmp_path, capsys):
        """Suite params go through the --param schema: an unknown key, a
        wrong type or a missing required param is that row's error note."""
        suite = tmp_path / "s.json"
        suite.write_text(json.dumps([
            {"name": "unknown-key", "algo": "random-coloring", "gen": "gnp:n=32,p=0.1",
             "seeds": [0], "params": {"zeta": 1, "c": "4"}},
            {"name": "wrong-type", "algo": "defective-coloring", "gen": "gnp:n=32,p=0.1",
             "seeds": [0], "params": {"p": "two"}},
            {"name": "missing", "algo": "kuhn-edge", "gen": "gnp:n=32,p=0.1",
             "seeds": [0], "params": {}},
            {"name": "good", "algo": "random-coloring", "gen": "gnp:n=32,p=0.1",
             "seeds": [0], "params": {"c": 4}},
        ]))
        out = tmp_path / "table.txt"
        assert main(["bench", "--suite", str(suite), "--out", str(out)]) == EXIT_VERDICT
        rows = {line.split()[0]: line for line in out.read_text().splitlines()[1:]}
        assert "unknown parameter 'zeta'" in rows["unknown-key"]
        assert "is not a int" in rows["wrong-type"]
        assert "requires parameter i" in rows["missing"]
        assert "1/1" in rows["good"]
        assert "Traceback" not in capsys.readouterr().err

    def test_internal_error_not_a_row_note(self, tmp_path, monkeypatch):
        """Only configuration errors (ValueError) become a row's note; a
        KeyError from inside a runner is a fault and propagates."""
        def broken(g, seed, params):
            raise KeyError("internal")

        monkeypatch.setitem(ALGORITHMS, "forest-id", ALGORITHMS["forest-id"]._replace(run=broken))
        suite = tmp_path / "s.json"
        suite.write_text(json.dumps([{"algo": "forest-id", "gen": "path:n=4"}]))
        with pytest.raises(KeyError, match="internal"):
            main(["bench", "--suite", str(suite), "--out", str(tmp_path / "table.txt")])

    def test_suite_not_a_list_config_error(self, tmp_path, capsys):
        suite = tmp_path / "s.json"
        suite.write_text(json.dumps({"algo": "random-coloring", "gen": "path:n=4"}))
        assert main(["bench", "--suite", str(suite)]) == EXIT_CONFIG
        assert "error: a suite is a JSON list" in capsys.readouterr().err

    @pytest.mark.parametrize("row,note", [
        ([5], "a suite row must be an object"),
        ({"algo": "random-coloring", "gen": "path:n=4", "params": [1]},
         "suite row 'params' must be a dict"),
        ({"algo": "random-coloring", "gen": "path:n=4", "seeds": 5},
         "suite row 'seeds' must be a list"),
        ({"algo": "random-coloring", "gen": "path:n=4", "seeds": []},  # runs nothing
         "suite row 'seeds' must not be empty"),
    ], ids=["row-not-object", "params-not-object", "seeds-not-list", "seeds-empty"])
    def test_malformed_suite_row_error_note(self, tmp_path, capsys, row, note):
        suite = tmp_path / "s.json"
        suite.write_text(json.dumps([row, {"name": "good", "algo": "random-coloring",
                                           "gen": "path:n=4", "seeds": [0]}]))
        out = tmp_path / "table.txt"
        assert main(["bench", "--suite", str(suite), "--out", str(out)]) == EXIT_VERDICT
        bad, good = out.read_text().splitlines()[1:]
        assert "error" in bad and note in bad
        assert "1/1" in good
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("c,message", [
        ("inf", "parameter c must be finite and > 0"),
        ("1e15", "more than 1024 draws per node"),
        ("1e7", "more than 1024 draws per node"),
    ])
    def test_bad_draw_constant_row_error_note(self, tmp_path, capsys, c, message):
        suite = tmp_path / "s.json"
        suite.write_text(json.dumps([{"name": tag, "algo": tag, "gen": gen,
                                      "params": {"c": c, **extra}}
                                     for tag, gen, extra in (
                                         ("random-coloring", "path:n=4", {}),
                                         ("arboricity-coloring", "path:n=4", {"a": 1}),
                                         ("edge-random", "path:n=4", {}))]))
        out = tmp_path / "table.txt"
        assert main(["bench", "--suite", str(suite), "--out", str(out)]) == EXIT_VERDICT
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 3
        assert all(message in row for row in rows)
        assert "Traceback" not in capsys.readouterr().err

    def test_console_entry_point(self):
        src = Path(genlabel.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "genlabel.cli", "run", "--algo",
             "random-coloring", "--gen", "gnp:n=16,p=0.2", "--seed", "1"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["status"] == "ok"
