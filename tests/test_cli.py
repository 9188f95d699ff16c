import hashlib
import json
import re

import numpy as np
import pytest

from wdrd import Digraph, kernel
from wdrd.cli import run
from wdrd.digraph import DGF_MAX_N, format_dgf
from test_scheme import wide_digraph
from test_search import fake_sweep_with_digon_survivor


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_cayley_dgf(self, capsys):
        code, out, _ = invoke(capsys, "gen", "cayley", "6", "1,4")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
        assert lines[0] == "n 6"
        assert len(lines) == 13  # header + 12 arcs

    def test_johnson_precondition_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "gen", "johnson", "3", "2")
        assert code == 2
        assert "n >= 2e" in err

    def test_oversize_generator_is_usage_error(self, capsys):
        code, out, err = invoke(capsys, "gen", "johnson", "24", "12")
        assert code == 2 and out == ""
        assert "J(24,12) has more vertices than the limit 4096" in err

    def test_labels_side_file(self, tmp_path, capsys):
        labels = tmp_path / "j.labels"
        code, out, _ = invoke(capsys, "gen", "johnson", "4", "2",
                              "--labels", str(labels))
        assert code == 0
        lines = labels.read_text().splitlines()
        assert lines[0] == "0 {0,1}"
        assert len(lines) == 6
        code, out, err = invoke(capsys, "gen", "complete", "3",
                                "--labels", str(tmp_path / "k3.labels"))
        assert code == 2 and out == "" and "--labels" in err
        assert not (tmp_path / "k3.labels").exists()

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "g.dgf"
        code, out, _ = invoke(capsys, "gen", "complete", "3",
                              "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().splitlines()[1] == "n 3"


class TestCheck:
    def test_round_trip_every_generator(self, tmp_path, capsys):
        for spec in (["johnson", "4", "2"], ["folded-johnson", "4"],
                     ["cayley", "6", "1,2"], ["complete", "4"]):
            target = tmp_path / "g.dgf"
            code, _, _ = invoke(capsys, "gen", *spec, "--out", str(target))
            assert code == 0
            code, out, _ = invoke(capsys, "check", str(target))
            assert code == 0
            json.loads(out)

    def test_expect_commutative_wdrd(self, tmp_path, capsys):
        target = tmp_path / "c12.dgf"
        invoke(capsys, "gen", "cayley", "6", "1,2", "--out", str(target))
        code, out, _ = invoke(capsys, "check", str(target),
                              "--expect", "commutative-wdrd")
        assert code == 0
        doc = json.loads(out)
        assert doc["is_wdrd"] and doc["commutative"]
        assert doc["type_set"] == [3, 4]

    def test_expect_failure_exit_one(self, tmp_path, capsys):
        target = tmp_path / "j.dgf"
        invoke(capsys, "gen", "johnson", "4", "2", "--out", str(target))
        code, _, err = invoke(capsys, "check", str(target), "--expect", "wdrd")
        assert code == 1 and "not met" in err

    def test_local_block(self, tmp_path, capsys):
        target = tmp_path / "c14.dgf"
        invoke(capsys, "gen", "cayley", "6", "1,4", "--out", str(target))
        code, out, _ = invoke(capsys, "check", str(target), "--local")
        doc = json.loads(out)
        assert all(entry["ok"] for entry in doc["local"]["local_counts"])
        assert doc["local"]["purity"] == [{"q": 2, "result": "pure"}]

    def test_local_block_off_a_distance_regular_underlying_graph(
            self, tmp_path, capsys):
        """Cay(Z8,{1,2}) is a commutative WDRD whose underlying graph is not
        distance-regular and whose (2,2)-pairs have two common neighbours."""
        target = tmp_path / "c812.dgf"
        invoke(capsys, "gen", "cayley", "8", "1,2", "--out", str(target))
        code, out, _ = invoke(capsys, "check", str(target), "--local",
                              "--expect", "commutative-wdrd")
        assert code == 0
        local = json.loads(out)["local"]
        assert "local_counts" not in local
        assert "not distance-regular" in local["note"]
        assert local["mu_cases"] == {"not covered": 4}
        assert local["purity"] == [{"q": 3, "result": "pure"},
                                   {"q": 4, "result": "mixed"}]

    def test_byte_stable(self, tmp_path, capsys):
        target = tmp_path / "c12.dgf"
        invoke(capsys, "gen", "cayley", "6", "1,2", "--out", str(target))
        _, out1, _ = invoke(capsys, "check", str(target), "--local")
        _, out2, _ = invoke(capsys, "check", str(target), "--local")
        assert out1 == out2

    def test_stdin_source(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("n 2\n0 1\n1 0\n"))
        code, out, _ = invoke(capsys, "check", "-")
        assert code == 0
        assert json.loads(out)["is_wdrd"] is False


class TestScheme:
    def test_valid_table(self, tmp_path, capsys):
        target = tmp_path / "c14.dgf"
        invoke(capsys, "gen", "cayley", "6", "1,4", "--out", str(target))
        code, out, _ = invoke(capsys, "scheme", str(target))
        assert code == 0
        doc = json.loads(out)
        assert doc["valid"]
        assert doc["classes"] == [[0, 0], [1, 2], [2, 1], [3, 3]]
        assert doc["valencies"] == [1, 2, 2, 1]

    def test_invalid_exit_one(self, tmp_path, capsys):
        target = tmp_path / "bad.dgf"
        target.write_text("n 3\n0 1\n1 0\n1 2\n2 0\n")
        code, out, _ = invoke(capsys, "scheme", str(target))
        assert code == 1
        doc = json.loads(out)
        assert not doc["valid"] and doc["axiom"] == 4

    def test_more_classes_than_int16_ids_hold(self, tmp_path, capsys):
        """36,315 two-way distance classes: the ids must not wrap, so the
        axiom check runs and reports its witness."""
        target = tmp_path / "wide.dgf"
        target.write_text(format_dgf(wide_digraph()))
        code, out, _ = invoke(capsys, "scheme", str(target))
        assert code == 1
        doc = json.loads(out)
        assert not doc["valid"] and doc["axiom"] == 4


class TestStructure:
    def test_johnson_pass(self, capsys):
        code, out, _ = invoke(capsys, "structure", "--graph", "johnson", "6", "2",
                              "--expect", "pass")
        assert code == 0
        doc = json.loads(out)
        assert doc["mu_property"]["ok"]
        assert doc["intersection_array"]["b"] == [8, 3]

    def test_folded_four_fails_expectation(self, capsys):
        code, out, _ = invoke(capsys, "structure", "--graph",
                              "folded-johnson", "4", "--expect", "pass")
        assert code == 1
        doc = json.loads(out)
        assert doc["mu_property"]["witness_mu_size"] == 8

    def test_sample(self, capsys):
        code, out, _ = invoke(capsys, "structure", "--graph", "johnson", "6", "3",
                              "--sample", "10", "--seed", "5")
        assert code == 0
        assert json.loads(out)["edges_checked"] == 10

    @pytest.mark.parametrize("sample", ["0", "-3"])
    def test_sample_below_one_is_usage_error(self, capsys, sample):
        code, out, err = invoke(capsys, "structure", "--graph", "johnson",
                                "4", "2", "--sample", sample)
        assert code == 2 and out == "" and "--sample" in err


class TestSearch:
    def test_k3_with_classes_dir(self, tmp_path, capsys):
        classes = tmp_path / "classes"
        code, out, _ = invoke(capsys, "search", "--graph", "complete", "3",
                              "--classes-dir", str(classes))
        assert code == 0
        doc = json.loads(out)
        assert doc["total_candidates"] == 27
        assert len(doc["iso_classes"]) == 1
        assert (classes / "class-000.dgf").exists()

    def test_expect_classes(self, capsys):
        code, _, _ = invoke(capsys, "search", "--graph", "complete", "2",
                            "--expect-classes", "0")
        assert code == 0
        code, _, err = invoke(capsys, "search", "--graph", "complete", "3",
                              "--expect-classes", "0")
        assert code == 1 and "expected 0" in err

    def test_dgf_file_source(self, tmp_path, capsys):
        target = tmp_path / "c4.dgf"
        invoke(capsys, "gen", "cayley", "4", "1,3", "--out", str(target))
        code, out, _ = invoke(capsys, "search", "--graph", str(target))
        assert code == 0
        assert len(json.loads(out)["iso_classes"]) == 1

    def test_johnson42_two_classes(self, capsys):
        code, out, _ = invoke(capsys, "search", "--graph", "johnson", "4", "2",
                              "--expect-classes", "2")
        assert code == 0
        doc = json.loads(out)
        assert [c["type_set"] for c in doc["iso_classes"]] == [[3], [3, 4]]

    def test_byte_stable_output(self, capsys):
        _, out1, _ = invoke(capsys, "search", "--graph", "complete", "3")
        _, out2, _ = invoke(capsys, "search", "--graph", "complete", "3")
        assert out1 == out2

    def test_timing_goes_to_stderr(self, capsys):
        _, out, err = invoke(capsys, "search", "--graph", "complete", "2")
        assert "took" in err and "took" not in out
        assert re.search(r"took \d+\.\d ms$", err.strip())

    def test_edge_cap_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "search", "--graph", "johnson", "4", "2",
                              "--max-edges", "5")
        assert code == 2 and "exceed" in err

    def test_jobs_below_one_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "search", "--graph", "complete", "3",
                              "--jobs", "0")
        assert code == 2 and "jobs" in err

    def test_unbalanced_accounting_exits_two(self, capsys, monkeypatch):
        real = kernel.search_run

        def unbalanced(n, edges, prefixes, **kwargs):
            stats = real(n, edges, prefixes, **kwargs)
            stats["skipped_degree"] += 1
            return stats

        monkeypatch.setattr(kernel, "search_run", unbalanced)
        code, out, err = invoke(capsys, "search", "--graph", "complete", "3")
        assert code == 2 and out == "" and "expected 3^3" in err

    @pytest.mark.parametrize("shift", [{"axiom": 1},
                                       {"axiom": -100, "symmetric": 100}],
                             ids=["unbalanced split", "negative counter"])
    def test_branch_counters_that_do_not_split_exit_two(self, capsys,
                                                        monkeypatch, shift):
        """A kernel call whose counters and survivors do not add up to its
        examined leaves, or hold a negative count, fails the run even
        though examined + skipped still make 3^|E|."""
        real = kernel.search_run

        def unbalanced(n, edges, prefixes, **kwargs):
            stats = real(n, edges, prefixes, **kwargs)
            for key, by in shift.items():
                stats[key] += by
            return stats

        monkeypatch.setattr(kernel, "search_run", unbalanced)
        code, out, err = invoke(capsys, "search", "--graph", "complete", "3")
        assert code == 2 and out == "" and "do not split" in err

    def test_canon_cap_exits_two_before_the_sweep(self, capsys, monkeypatch):
        def sweep(*args, **kwargs):
            raise AssertionError("the kernel ran")

        monkeypatch.setattr(kernel, "search_run", sweep)
        code, out, err = invoke(capsys, "search", "--graph", "cayley", "17",
                                "1,16", "--prune", "degree", "--max-edges", "17")
        assert code == 2 and out == "" and "capped at 16" in err

    def test_failed_reverification_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(kernel, "search_run", fake_sweep_with_digon_survivor)
        code, out, err = invoke(capsys, "search", "--graph", "complete", "3")
        assert code == 2 and out == "" and "re-verification" in err

    def test_oversize_dgf_exits_two(self, tmp_path, capsys):
        src = tmp_path / "big.dgf"
        src.write_text(f"n {DGF_MAX_N + 1}\n0 1\n1 0\n")
        code, out, err = invoke(capsys, "search", "--graph", str(src))
        assert code == 2 and out == "" and "DGF limit" in err


# sha256 and length of the JSON that `wdrd check` / `wdrd scheme` printed for
# these inputs before the scheme checks were vectorised
GOLDEN = {
    ("check", "johnson 7 3"): (
        "253c5010f071303c8cb02e1f62314a2c490278c66e072617604e8432aa3bb62d", 1851),
    ("check", "folded-johnson 4"): (
        "363a39ec6decd06fa963698712c2168670f55255d6b4e3f5954e01783bd6cec0", 1129),
    ("check", "cayley 32 1"): (
        "3cc810e7f5d4c5707c15e420ca6909c1e6a304cedaf8803e2ae6a4a81feeedea", 450072),
    ("check", "violator"): (
        "92104f19e52a9d4a9bd819d9e8f956e7e7926ec7834f9cbe693b0921f24bcf9f", 562),
    ("scheme", "violator"): (
        "36043343c18f86530f9bbfc2646f2b068de08ffa6cf0f0608f13a405485d9394", 333),
}
# Cay(Z9,{1,3}) relabelled, less one arc: fails axiom (iv)
VIOLATOR = ("n 9\n0 1\n0 5\n1 4\n1 6\n2 4\n2 7\n3 5\n4 0\n4 3\n5 6\n5 8\n"
            "6 2\n6 3\n7 0\n7 8\n8 1\n8 2\n")


class TestGolden:
    @pytest.mark.parametrize("command,source", sorted(GOLDEN))
    def test_byte_identical(self, command, source, tmp_path, capsys):
        target = tmp_path / "g.dgf"
        if source == "violator":
            target.write_text(VIOLATOR)
        else:
            invoke(capsys, "gen", *source.split(), "--out", str(target))
        code, out, _ = invoke(capsys, command, str(target))
        assert code == (1 if command == "scheme" else 0)
        assert (hashlib.sha256(out.encode()).hexdigest(), len(out)) == \
            GOLDEN[command, source]

    def test_violator_witness(self, tmp_path, capsys):
        target = tmp_path / "v.dgf"
        target.write_text(VIOLATOR)
        _, out, _ = invoke(capsys, "scheme", str(target))
        assert json.loads(out) == {
            "valid": False, "axiom": 4,
            "message": "intersection number not constant on class",
            "witness": {"i": [1, 2], "j": [1, 4], "l": [2, 3],
                        "pair_a": [0, 6], "count_a": 1,
                        "pair_b": [0, 8], "count_b": 0}}


# sha256 and length of the `wdrd search` JSON for these arguments before the
# canonical search used integer layer keys (the --jobs 2 pins: before the
# kernels lost their reversal skip; the --use-reversal and unpruned K7 pins:
# before `search` derived the unpruned counters); every class's DGF there
# is the canonical digraph, so this pins canon end to end
GOLDEN_SEARCH = {
    "--graph johnson 4 2": (
        "6175fd76a75dad4bfe86f6b4de0238a87b63a5242360a595a56c1bf5e9a3c2ac", 1812),
    "--graph complete 7 --prune degree --max-edges 21": (
        "9e1c15380b5a2bd24fcd352ebe0aec24855e263c29d3eafaad950af92be96aa3", 1003),
    "--graph johnson 4 2 --jobs 2": (
        "aba2bc69f7386390b2ed358e5b5ffce9fb726a6c397d51a98043caf0949bb21f", 1812),
    "--graph complete 7 --prune degree --max-edges 21 --jobs 2": (
        "86b62a29bb10ce29ca8f1a931560de1d9fd177f6dacacdc3c41a3bac896e07aa", 1003),
    "--graph johnson 4 2 --use-reversal": (
        "a983ccb33e31c2b98cd2b97f000b4fd93a9115235565425ca956fc423842cfeb", 1816),
    "--graph johnson 4 2 --jobs 2 --use-reversal": (
        "1617ee0bc38c2b8b1a342b0ba7d75fa607b29dbb496f324c038c8c2bf4776de4", 1816),
    "--graph complete 7 --max-edges 21": (
        "15ec9c756ba8431318e5515aa6884934272b9244c51422f9294726fe1f0feef5", 1011),
    "--graph complete 7 --max-edges 21 --jobs 2 --use-reversal": (
        "702bd0292147beb827efd9bb50de15888e5aaaad311048e62216aaac3b11b8d6", 1017),
}


class TestGoldenSearch:
    @pytest.mark.parametrize("args", sorted(GOLDEN_SEARCH))
    def test_byte_identical(self, args, capsys):
        code, out, _ = invoke(capsys, "search", *args.split())
        assert code == 0
        assert (hashlib.sha256(out.encode()).hexdigest(), len(out)) == \
            GOLDEN_SEARCH[args]


class TestIso:
    def test_expectations(self, tmp_path, capsys):
        a = tmp_path / "a.dgf"
        b = tmp_path / "b.dgf"
        c = tmp_path / "c.dgf"
        invoke(capsys, "gen", "cayley", "6", "1,2", "--out", str(a))
        invoke(capsys, "gen", "cayley", "6", "4,5", "--out", str(b))
        invoke(capsys, "gen", "cayley", "6", "1,4", "--out", str(c))
        code, out, _ = invoke(capsys, "iso", str(a), str(b), "--expect", "iso")
        assert code == 0 and json.loads(out)["isomorphic"]
        code, out, _ = invoke(capsys, "iso", str(a), str(c), "--expect", "iso")
        assert code == 1 and not json.loads(out)["isomorphic"]
        code, _, _ = invoke(capsys, "iso", str(a), str(c), "--expect", "non-iso")
        assert code == 0

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "iso", "nope.dgf", "nada.dgf")
        assert code == 2

    def test_form_beyond_one_byte_of_vertices_is_usage_error(self, tmp_path,
                                                            capsys):
        # a random digraph: refinement separates every vertex, so a form
        # that did not check the count would be computed quickly
        rng = np.random.default_rng(5)
        adj = rng.random((256, 256)) < 0.1
        arcs = [(u, v) for u, v in zip(*np.nonzero(adj)) if u != v]
        a = tmp_path / "r256.dgf"
        a.write_text(format_dgf(Digraph.from_arcs(256, arcs)))
        code, out, err = invoke(capsys, "iso", "--max-n", "300", str(a), str(a))
        assert code == 2 and out == ""
        assert "at most 255 vertices" in err
