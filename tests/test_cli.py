import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import permutoehr
import permutoehr.cli as cli_module
from permutoehr.cli import main
from permutoehr.ehrhart import ehrhart_closed, f_polynomial_stable, volume_closed
from permutoehr.graphs import enumerate_graphs, vertex_pairs
from permutoehr.polynomials import Poly
from permutoehr.polytope import PartialPermutohedron


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_poly_json(payload):
    return Poly([Fraction(c) for c in payload["coefficients"]])


def parse_poly_csv(text):
    rows = [line.split(",") for line in text.strip().splitlines()]
    assert rows[0] == ["power", "coefficient"]
    coeffs = {}
    value = None
    for row in rows[1:]:
        if row[0] == "value":
            value = Fraction(row[1])
        else:
            coeffs[int(row[0])] = Fraction(row[1])
    top = max(coeffs) if coeffs else 0
    return Poly([coeffs.get(i, 0) for i in range(top + 1)]), value


def materialised_graph_listing(m, fmt):
    """(stdout, stderr) of ``graphs --m m`` built as one list of rows first."""
    pairs = vertex_pairs(m)
    rows = []
    for graph in enumerate_graphs(m):
        edges = {f"{i + 1},{j + 1}": c for (i, j), c in zip(pairs, graph.pair_mult) if c}
        rows.append({"loops": list(graph.loops), "edges": edges})
    if fmt == "json":
        report = {"command": "graphs", "m": m, "count": len(rows), "graphs": rows}
        report["elapsed_ms"] = 0
        return json.dumps(report, indent=2) + "\n", ""
    if fmt == "csv":
        lines = ["loops,edges"]
        for row in rows:
            edge_str = ";".join(f"{k}:{v}" for k, v in row["edges"].items())
            lines.append(" ".join(str(c) for c in row["loops"]) + "," + edge_str)
        return "\n".join(lines) + "\n", ""
    lines = []
    for row in rows:
        edge_str = " ".join(f"{{{k}}}x{v}" for k, v in row["edges"].items()) or "-"
        lines.append(f"loops={tuple(row['loops'])} edges: {edge_str}")
    return "\n".join(lines) + "\n", f"# {len(rows)} graphs\n"


class TestEhrhartCommand:
    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "ehrhart", "--m", "5", "--n", "7", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["coefficients"][0] == "1"
        assert parse_poly_json(payload) == ehrhart_closed(5, 7)
        assert payload["method"] == "closed"
        assert isinstance(payload["elapsed_ms"], int)

    def test_anchor_coefficients(self, capsys):
        code, out, _ = run(
            capsys, "ehrhart", "--m", "2", "--n", "2", "--method", "closed",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["coefficients"] == ["1", "7/2", "7/2"]

    def test_csv_and_json_encode_identical_values(self, capsys):
        args = ("ehrhart", "--m", "4", "--n", "4", "--t", "2")
        code, json_out, _ = run(capsys, *args, "--format", "json")
        assert code == 0
        payload = json.loads(json_out)
        code, csv_out, _ = run(capsys, *args, "--format", "csv")
        assert code == 0
        csv_poly, csv_value = parse_poly_csv(csv_out)
        assert csv_poly == parse_poly_json(payload)
        assert csv_value == Fraction(payload["value"])

    @pytest.mark.parametrize(
        "method", ("closed", "postnikov", "graphsum", "egf", "egf-tree", "recurrence")
    )
    def test_all_methods_exposed(self, capsys, method):
        code, out, _ = run(
            capsys, "ehrhart", "--m", "3", "--n", "3", "--method", method,
            "--format", "json",
        )
        assert code == 0
        assert parse_poly_json(json.loads(out)) == ehrhart_closed(3, 3)

    def test_validation_exit_code(self, capsys):
        code, _, err = run(capsys, "ehrhart", "--m", "3", "--n", "1")
        assert code == 2
        assert "n >= m - 1" in err

    def test_evaluation(self, capsys):
        code, out, _ = run(capsys, "ehrhart", "--m", "2", "--n", "2", "--t", "1")
        assert code == 0
        assert "value at t=1: 8" in out

    @pytest.mark.parametrize("t", ("0", "-3"))
    def test_bad_t_rejected_before_the_engine_runs(self, capsys, monkeypatch, t):
        def engine(*args):
            raise AssertionError("the engine ran")

        monkeypatch.setattr(cli_module, "compute_ehrhart", engine)
        code, out, err = run(capsys, "ehrhart", "--m", "2", "--n", "2", "--t", t)
        assert code == 2
        assert out == ""
        assert "evaluation point t must be >= 1" in err


class TestOtherCommands:
    def test_volume(self, capsys):
        code, out, _ = run(capsys, "volume", "--m", "2", "--n", "1")
        assert code == 0
        assert out.strip() == "1/2"
        code, out, _ = run(capsys, "volume", "--m", "3", "--n", "3", "--format", "json")
        assert Fraction(json.loads(out)["volume"]) == volume_closed(3, 3)

    def test_fpoly_stable(self, capsys):
        code, out, _ = run(capsys, "fpoly", "--m", "3", "--stable", "--format", "json")
        assert code == 0
        assert parse_poly_json(json.loads(out)) == f_polynomial_stable(3)

    def test_fpoly_needs_n_without_stable(self, capsys):
        code, _, err = run(capsys, "fpoly", "--m", "3")
        assert code == 2
        assert "--n" in err

    def test_vertices(self, capsys):
        code, out, _ = run(capsys, "vertices", "--m", "2", "--n", "2", "--format", "json")
        payload = json.loads(out)
        assert payload["count"] == 5
        assert sorted(map(tuple, payload["vertices"])) == [
            (0, 0), (0, 2), (1, 2), (2, 0), (2, 1),
        ]

    def test_facets(self, capsys):
        code, out, _ = run(capsys, "facets", "--m", "2", "--n", "1", "--format", "json")
        payload = json.loads(out)
        assert payload["count"] == 3
        senses = {f["sense"] for f in payload["facets"]}
        assert senses == {"<=", ">="}

    @pytest.mark.parametrize(
        "command, m, count",
        (("vertices", 12, 1302061345), ("facets", 30, 1073741853)),
    )
    def test_absurd_listing_refused_before_enumerating(
        self, capsys, monkeypatch, command, m, count
    ):
        monkeypatch.delenv("PERMUTOEHR_BUDGET", raising=False)

        def must_not_run(self):
            raise AssertionError("enumerated past the budget")

        monkeypatch.setattr(PartialPermutohedron, command, must_not_run)
        code, out, err = run(capsys, command, "--m", str(m), "--n", str(m))
        assert (code, out) == (3, "")
        assert f"{count} {command} exceeds budget 100000000" in err

    @pytest.mark.parametrize(
        "command, stated", (("vertices", "more than 2^19054"), ("facets", "more than 2^2000"))
    )
    def test_astronomical_listing_refused_with_its_size(
        self, capsys, monkeypatch, command, stated
    ):
        # 2000! alone has 5736 digits, past what str() of an int allows
        monkeypatch.delenv("PERMUTOEHR_BUDGET", raising=False)
        code, out, err = run(capsys, command, "--m", "2000", "--n", "2000")
        assert (code, out) == (3, "")
        assert f"{stated} {command} exceeds budget" in err

    @pytest.mark.parametrize(
        "command, stated",
        (("vertices", "more than 2^1516705"), ("facets", "more than 2^100000")),
    )
    def test_huge_listing_refused_quickly(self, capsys, monkeypatch, command, stated):
        # the counts behind these messages have 1.5 million and 100,001 bits
        monkeypatch.delenv("PERMUTOEHR_BUDGET", raising=False)
        code, out, err = run(capsys, command, "--m", "100000", "--n", "100000")
        assert (code, out) == (3, "")
        assert f"error: {stated} {command} exceeds budget 100000000" in err

    @pytest.mark.parametrize("command", ("vertices", "facets"))
    def test_listing_at_its_budget_is_unchanged(self, capsys, monkeypatch, command):
        poly = PartialPermutohedron(3, 2)
        if command == "vertices":
            count = poly.vertex_count()
            expected = [" ".join(map(str, v)) for v in sorted(poly.vertices())]
        else:
            count = poly.facet_count()
            expected = [str(f) for f in poly.facets()]
        monkeypatch.setenv("PERMUTOEHR_BUDGET", str(count))
        code, out, err = run(capsys, command, "--m", "3", "--n", "2")
        assert code == 0
        assert out.splitlines() == expected and len(expected) == count
        assert err == f"# {count} {command}\n"
        monkeypatch.setenv("PERMUTOEHR_BUDGET", str(count - 1))
        code, out, err = run(capsys, command, "--m", "3", "--n", "2")
        assert (code, out) == (3, "")
        assert f"{count} {command} exceeds budget {count - 1}" in err

    def test_count_points(self, capsys):
        code, out, _ = run(capsys, "count-points", "--m", "2", "--n", "1", "--t", "1")
        assert code == 0
        assert out.strip() == "3"

    def test_budget_exit_code(self, capsys, monkeypatch):
        # the DP's work bound at (3, 3, 2) is 6 * 4 * 13 * 3 = 936
        monkeypatch.setenv("PERMUTOEHR_BUDGET", "935")
        code, _, err = run(capsys, "count-points", "--m", "3", "--n", "3", "--t", "2")
        assert code == 3
        assert "= 936 exceeds budget 935" in err

    def test_count_points_m7_under_default_budget(self, capsys, monkeypatch):
        monkeypatch.delenv("PERMUTOEHR_BUDGET", raising=False)
        code, out, _ = run(capsys, "count-points", "--m", "7", "--n", "7", "--t", "2")
        assert code == 0
        assert out.strip() == "105514992" == str(ehrhart_closed(7, 7)(2))

    def test_bad_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PERMUTOEHR_BUDGET", "many")
        code, _, err = run(capsys, "count-points", "--m", "2", "--n", "1", "--t", "1")
        assert code == 2
        assert "PERMUTOEHR_BUDGET" in err

    def test_graphs_stats_csv(self, capsys):
        code, out, _ = run(capsys, "graphs", "--m", "2", "--stats", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "loops,single,pairs,count"
        assert sum(int(line.split(",")[-1]) for line in lines[1:]) == 8

    def test_graphs_listing(self, capsys):
        code, out, _ = run(capsys, "graphs", "--m", "2", "--format", "json")
        payload = json.loads(out)
        assert payload["count"] == 8

    @pytest.mark.parametrize("fmt", ("json", "csv", "plain"))
    @pytest.mark.parametrize("m", range(1, 5))
    def test_graphs_listing_streams_the_materialised_form(self, capsys, m, fmt):
        code, out, err = run(capsys, "graphs", "--m", str(m), "--format", fmt)
        assert code == 0
        expected_out, expected_err = materialised_graph_listing(m, fmt)
        elapsed = re.compile(r'"elapsed_ms": \d+')
        assert elapsed.sub("", out) == elapsed.sub("", expected_out)
        assert err == expected_err

    def test_parking(self, capsys):
        code, out, _ = run(capsys, "parking", "--m", "2")
        assert code == 0 and out.strip() == "3"
        code, out, _ = run(capsys, "parking", "--m", "3", "--format", "json")
        assert json.loads(out)["count"] == 17

    def test_parking_rejects_m1(self, capsys):
        code, _, err = run(capsys, "parking", "--m", "1")
        assert code == 2
        assert "m >= 2" in err


class TestVerifyCommand:
    def test_passes_at_small_scale(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-m", "2", "--max-t", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1].endswith("checks passed")

    def test_seed_flag_reproducible(self, capsys):
        _, out_a, _ = run(capsys, "verify", "--max-m", "2", "--max-t", "1", "--seed", "9")
        _, out_b, _ = run(capsys, "verify", "--max-m", "2", "--max-t", "1", "--seed", "9")
        assert out_a == out_b

    @pytest.mark.parametrize("max_t", ("0", "-1"))
    def test_max_t_below_one_is_an_error_not_a_vacuous_pass(self, capsys, max_t):
        code, out, err = run(capsys, "verify", "--max-m", "2", "--max-t", max_t)
        assert code == 2
        assert out == ""
        assert "max_t >= 1" in err


class TestParserBehaviour:
    def test_unknown_method_rejected_by_argparse(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["ehrhart", "--m", "2", "--n", "2", "--method", "sampling"])
        assert excinfo.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2


class TestModuleEntryPoint:
    @pytest.mark.parametrize(
        "argv", (("ehrhart", "--m", "2", "--n", "2"), ("ehrhart", "--m", "3", "--n", "1"))
    )
    def test_python_m_matches_main(self, capsys, argv):
        src = str(Path(permutoehr.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "permutoehr", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        code, out, err = run(capsys, *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
