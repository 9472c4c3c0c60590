import argparse
import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import permutoehr
import permutoehr.cli as cli_module
import permutoehr.ehrhart as ehrhart_module
import permutoehr.polytope as polytope_module
import permutoehr.verify as verify_module
from permutoehr.cli import main
from permutoehr.ehrhart import (
    METHOD_NAMES, ehrhart_closed, f_polynomial, f_polynomial_stable, volume_closed,
)
from permutoehr.graphs import enumerate_graphs, graph_census, vertex_pairs
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


def materialised_polytope_listing(command, m, n, fmt):
    """(stdout, stderr) of ``vertices`` or ``facets`` built as one list of
    rows first."""
    poly = PartialPermutohedron(m, n)
    if command == "vertices":
        items = sorted(poly.vertices())
        rows = [list(v) for v in items]
        header = [f"x{i + 1}" for i in range(m)]
        csv_rows = rows
        plain = [" ".join(map(str, v)) for v in items]
    else:
        items = poly.facets()
        rows = [{"coeffs": list(f.coeffs), "sense": f.sense, "bound": f.bound} for f in items]
        header = [f"c{i + 1}" for i in range(m)] + ["sense", "bound"]
        csv_rows = [[*f.coeffs, f.sense, f.bound] for f in items]
        plain = [str(f) for f in items]
    if fmt == "json":
        report = {"command": command, "m": m, "n": n, "count": len(rows), command: rows}
        report["elapsed_ms"] = 0
        return json.dumps(report, indent=2) + "\n", ""
    if fmt == "csv":
        return "".join(",".join(map(str, row)) + "\n" for row in [header, *csv_rows]), ""
    return "".join(line + "\n" for line in plain), f"# {len(rows)} {command}\n"


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


# what the polytope listings are budgeted on: m entries per item
ENTRIES = {"vertices": "vertex entries", "facets": "facet coefficients"}


def patch_first_step(monkeypatch, command, replacement):
    """Replace a polytope listing's first step after its refusal:
    vertices() starts its walk, facets() builds FacetInequality rows
    (vertex_count and facet_count, which the refusal calls, use neither)."""
    if command == "vertices":
        monkeypatch.setattr(PartialPermutohedron, "_walk_vertices", replacement)
    else:
        monkeypatch.setattr(polytope_module, "FacetInequality", replacement)


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

        def must_not_run(*args):
            raise AssertionError("enumerated past the budget")

        patch_first_step(monkeypatch, command, must_not_run)
        code, out, err = run(capsys, command, "--m", str(m), "--n", str(m))
        assert (code, out) == (3, "")
        # refused on the entries the listing would build, m per item
        assert f"{count * m} {ENTRIES[command]} exceeds budget 100000000" in err

    @pytest.mark.parametrize(
        "command, stated", (("vertices", "more than 2^2000"), ("facets", "more than 2^2000"))
    )
    def test_astronomical_listing_refused_with_its_size(
        self, capsys, monkeypatch, command, stated
    ):
        # 2000! alone has 5736 digits, past what str() of an int allows
        # (the entry count, past min(m, n) = 64, is stated by its floor 2^min(m, n))
        monkeypatch.delenv("PERMUTOEHR_BUDGET", raising=False)
        code, out, err = run(capsys, command, "--m", "2000", "--n", "2000")
        assert (code, out) == (3, "")
        assert f"{stated} {ENTRIES[command]} exceeds budget" in err

    @pytest.mark.parametrize(
        "command, m, stated",
        (
            ("vertices", "100000", "more than 2^100000"),
            ("facets", "100000", "more than 2^100000"),
            ("vertices", "100000000", "more than 2^100000000"),
            ("facets", "100000000", "more than 2^100000000"),
        ),
    )
    def test_huge_listing_refused_quickly(self, capsys, monkeypatch, command, m, stated):
        # both counts are refused on their floor 2^min(m, n) without being
        # counted
        monkeypatch.delenv("PERMUTOEHR_BUDGET", raising=False)
        code, out, err = run(capsys, command, "--m", m, "--n", m)
        assert (code, out) == (3, "")
        assert f"error: {stated} {ENTRIES[command]} exceeds budget 100000000" in err

    def test_facets_refused_on_a_floor_without_the_binomial_sum(self, capsys, monkeypatch):
        # C(100000, i) summed over i < 50000 has 99,999 bits; the refusal
        # states the floor 2^min(m, n) = 2^50000 instead of summing
        monkeypatch.delenv("PERMUTOEHR_BUDGET", raising=False)
        code, out, err = run(capsys, "facets", "--m", "100000", "--n", "50000")
        assert (code, out) == (3, "")
        assert "error: more than 2^50000 facet coefficients exceeds budget 100000000" in err

    def test_facet_floor_refuses_but_never_admits(self, capsys, monkeypatch):
        # at budget 2^66 the floor 2^min(m, n) = 2^66 cannot refuse, so the
        # coefficient count, 140 (140 + sum_{i<66} C(140, i)), near 2^143,
        # is taken; at 2^64 the floor refuses without it
        bits = (PartialPermutohedron(140, 66).facet_count() * 140).bit_length()
        monkeypatch.setenv("PERMUTOEHR_BUDGET", str(2**66))
        code, out, err = run(capsys, "facets", "--m", "140", "--n", "66")
        assert (code, out) == (3, "")
        assert f"more than 2^{bits - 1} facet coefficients exceeds budget {2**66}" in err
        monkeypatch.setenv("PERMUTOEHR_BUDGET", str(2**64))
        code, out, err = run(capsys, "facets", "--m", "140", "--n", "66")
        assert (code, out) == (3, "")
        assert f"more than 2^66 facet coefficients exceeds budget {2**64}" in err

    @pytest.mark.parametrize("command", ("vertices", "facets", "graphs"))
    def test_listing_at_its_budget_is_unchanged(self, capsys, monkeypatch, command):
        poly = PartialPermutohedron(3, 2)
        argv = (command, "--m", "3", "--n", "2")
        if command == "vertices":
            count = poly.vertex_count()
            expected = [" ".join(map(str, v)) for v in sorted(poly.vertices())]
        elif command == "facets":
            count = poly.facet_count()
            expected = [str(f) for f in poly.facets()]
        else:
            # refused on the census total, 8 at m = 2, before any row
            argv = (command, "--m", "2")
            count = sum(graph_census(2).values())
            expected = materialised_graph_listing(2, "plain")[0].splitlines()
        # the polytope listings are budgeted on their m = 3 entries per item
        work = 3 * count if command in ENTRIES else count
        monkeypatch.setenv("PERMUTOEHR_BUDGET", str(work))
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert out.splitlines() == expected and len(expected) == count
        assert err == f"# {count} {command}\n"
        monkeypatch.setenv("PERMUTOEHR_BUDGET", str(work - 1))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert f"{work} {ENTRIES.get(command, command)} exceeds budget {work - 1}" in err

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

    def test_long_vectors_answer_at_once(self, capsys, monkeypatch):
        # a point of P(10^7, 1) has at most one nonzero entry, so the DP
        # reads one cap; at n = 10^7 the refusal reads cap(1) and cap(m)
        # and never builds the tuple of the 10^7 caps
        monkeypatch.delenv("PERMUTOEHR_BUDGET", raising=False)
        argv = ("count-points", "--m", "10000000", "--t", "1", "--n")
        assert run(capsys, *argv, "1") == (0, "10000001\n", "")

        def build(poly):
            raise AssertionError("the cap tuple was built")

        monkeypatch.setattr(PartialPermutohedron, "caps", property(build))
        code, out, err = run(capsys, *argv, "10000000")
        assert (code, out) == (3, "")
        assert re.search(r"= more than 2\^\d+ exceeds budget 100000000\n$", err)

    def test_bad_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PERMUTOEHR_BUDGET", "many")
        code, _, err = run(capsys, "count-points", "--m", "2", "--n", "1", "--t", "1")
        assert code == 2
        assert "PERMUTOEHR_BUDGET" in err

    @pytest.mark.parametrize("budget", ("x", "1"))
    @pytest.mark.parametrize("argv, precondition", (
        (("parking", "--m", "1"), "needs m >= 2"),
        (("graphs", "--m", "0", "--stats"), "need m >= 1"),
        (("verify", "--max-m", "7"), "max_m is capped at 6"),
    ))
    def test_domain_error_before_the_budget(self, capsys, monkeypatch, budget, argv, precondition):
        # the budget is read where a work estimate is compared with it, so
        # an argument outside the domain is named first, whatever the budget
        monkeypatch.setenv("PERMUTOEHR_BUDGET", budget)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert precondition in err
        assert "PERMUTOEHR_BUDGET" not in err

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

    @pytest.mark.parametrize("fmt", ("json", "csv", "plain"))
    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("m", range(1, 5))
    @pytest.mark.parametrize("command", ("vertices", "facets"))
    def test_polytope_listing_streams_the_materialised_form(self, capsys, command, m, n, fmt):
        code, out, err = run(capsys, command, "--m", str(m), "--n", str(n), "--format", fmt)
        assert code == 0
        expected_out, expected_err = materialised_polytope_listing(command, m, n, fmt)
        elapsed = re.compile(r'"elapsed_ms": \d+')
        assert elapsed.sub("", out) == elapsed.sub("", expected_out)
        assert err == expected_err

    def test_vertex_listing_is_never_held(self, capsys, monkeypatch):
        # 13,700 vertices of 7 entries: a held set and its sorted copy
        # peaked at about 2 MB; the walk holds only the output's blocks of
        # 4096 lines
        with open(os.devnull, "w") as devnull:
            monkeypatch.setattr(sys, "stdout", devnull)
            tracemalloc.start()
            try:
                code = main(["vertices", "--m", "7", "--n", "7"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert capsys.readouterr().err == "# 13700 vertices\n"
        assert peak < 1_000_000

    @pytest.mark.parametrize("argv", (
        ("vertices", "--m", "3", "--n", "3"),
        ("facets", "--m", "4", "--n", "3"),
        ("graphs", "--m", "3"),
    ))
    def test_json_listing_is_written_item_by_item(self, capsys, monkeypatch, argv):
        # no listing is handed whole to json.dumps: its items are laid out
        # as they are made, the head and the rest of the report alone dumped
        dumps = json.dumps

        def refuse_listings(obj, *args, **kwargs):
            if isinstance(obj, dict) and {"vertices", "facets", "graphs"} & obj.keys():
                raise AssertionError("a whole listing went to json.dumps")
            return dumps(obj, *args, **kwargs)

        monkeypatch.setattr(json, "dumps", refuse_listings)
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert len(payload[argv[0]]) == payload["count"] > 0

    @pytest.mark.parametrize("fmt", ("plain", "csv", "json"))
    @pytest.mark.parametrize(
        "m, expected",
        (("8", (3, "enumeration for m=8 exceeds the bound 7")), ("0", (2, "need m >= 1"))),
    )
    def test_refused_graphs_listing_writes_nothing(self, capsys, m, fmt, expected):
        code, out, err = run(capsys, "graphs", "--m", m, "--format", fmt)
        assert (code, out, err) == (expected[0], "", f"error: {expected[1]}\n")

    def test_parking(self, capsys):
        code, out, _ = run(capsys, "parking", "--m", "2")
        assert code == 0 and out.strip() == "3"
        code, out, _ = run(capsys, "parking", "--m", "3", "--format", "json")
        assert json.loads(out)["count"] == 17

    def test_parking_rejects_m1(self, capsys):
        code, _, err = run(capsys, "parking", "--m", "1")
        assert code == 2
        assert "m >= 2" in err

    @pytest.mark.parametrize(
        "command, m, n, stated",
        (
            ("vertices", 10, 10, None),  # 9864101 vertices * 10 = 98641010 entries
            ("vertices", 12, 8, "296684940 vertex entries"),  # 24723745 vertices
            ("facets", 22, 22, None),  # 4194325 facets * 22 = 92275150 coefficients
            ("facets", 26, 26, "1744831114 facet coefficients"),  # 67108889 facets
        ),
    )
    def test_polytope_listing_budgeted_on_its_entries(
        self, capsys, monkeypatch, command, m, n, stated
    ):
        monkeypatch.delenv("PERMUTOEHR_BUDGET", raising=False)

        class Admitted(Exception):
            pass

        def admitted(*args):
            raise Admitted

        patch_first_step(monkeypatch, command, admitted)
        argv = (command, "--m", str(m), "--n", str(n))
        if stated is None:
            with pytest.raises(Admitted):
                main(list(argv))
        else:
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (3, "", f"error: {stated} exceeds budget 100000000\n")


def unlimited_str(value) -> str:
    """str(value) past CPython's int-to-str digit limit, restored after."""
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_digits is None:
        return str(value)
    digits = sys.get_int_max_str_digits()
    set_digits(0)
    try:
        return str(value)
    finally:
        set_digits(digits)


class TestLongExactResults:
    """An exact result printed in full, past the 4300 digits that str() of
    an int allows by default."""

    @pytest.mark.parametrize("fmt", ("plain", "json"))
    def test_volume_past_the_digit_limit(self, capsys, fmt):
        code, out, err = run(capsys, "volume", "--m", "2000", "--n", "2000", "--format", fmt)
        assert (code, err) == (0, "")
        expected = unlimited_str(volume_closed(2000, 2000))
        assert len(expected) > 4300
        if fmt == "json":
            assert json.loads(out)["volume"] == expected
        else:
            assert out == expected + "\n"

    @pytest.mark.parametrize("fmt", ("plain", "json"))
    def test_ehrhart_value_past_the_digit_limit(self, capsys, fmt):
        t = 10**20
        code, out, err = run(
            capsys, "ehrhart", "--m", "300", "--n", "300", "--t", str(t), "--format", fmt
        )
        assert (code, err) == (0, "")
        expected = unlimited_str(ehrhart_closed(300, 300)(t))
        assert len(expected) > 4300
        if fmt == "json":
            assert json.loads(out)["value"] == expected
        else:
            assert out.splitlines()[-1] == f"value at t={t}: {expected}"

    @pytest.mark.parametrize(
        "argv, code",
        (
            (("volume", "--m", "2000", "--n", "2000"), 0),
            (("volume", "--m", "14605", "--n", "14605"), 3),
            (("volume", "--m", "0", "--n", "1"), 2),
        ),
    )
    def test_main_restores_the_digit_limit(self, capsys, argv, code):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        before = limit()
        assert run(capsys, *argv)[0] == code
        assert limit() == before


def _engines_must_not_run(monkeypatch):
    """Fail on the first step each formula route takes after its refusal:
    a loop over ``range``, or the series of ``egf``."""

    def must_not_run(*args, **kwargs):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(ehrhart_module, "range", must_not_run, raising=False)
    for name in ("TruncatedSeries", "one_minus_z"):
        monkeypatch.setattr(ehrhart_module, name, must_not_run)


class TestFormulaBudget:
    @pytest.mark.parametrize(
        "argv, stated",
        (
            (("ehrhart", "--m", "5000", "--n", "5000"),
             "closed work bound loops*64-bit operand words 25000000*2188 = 54700000000"),
            (("ehrhart", "--method", "recurrence", "--m", "3000", "--n", "3000"),
             "recurrence work bound loops*64-bit operand words 9000000*1219 = 10971000000"),
            (("ehrhart", "--method", "egf", "--m", "2000", "--n", "2000"),
             "egf work bound loops*64-bit operand words 4000000*751 = 3004000000"),
            (("fpoly", "--m", "5000", "--n", "5000"),
             "fpoly work bound loops*64-bit operand words 25000000*2188 = 54700000000"),
            (("volume", "--m", "200000", "--n", "200000"),
             "volume work bound loops*64-bit operand words 200000*118751 = 23750200000"),
            (("ehrhart", "--method", "egf-tree", "--m", "317", "--n", "317"),
             "egf-tree work bound loops*64-bit operand words 100489*1000 = 100489000"),
        ),
    )
    def test_absurd_request_refused_before_computing(self, capsys, monkeypatch, argv, stated):
        monkeypatch.delenv("PERMUTOEHR_BUDGET", raising=False)
        _engines_must_not_run(monkeypatch)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert f"error: {stated} exceeds budget 100000000" in err

    @pytest.mark.parametrize(
        "argv",
        (
            ("ehrhart", "--m", "5000", "--n", "3"),
            ("ehrhart", "--method", "egf-tree", "--m", "0", "--n", "5"),
            ("volume", "--m", "200000", "--n", "5"),
            ("fpoly", "--m", "5000", "--n", "0"),
            ("fpoly", "--m", "5000", "--n", "3", "--stable"),
        ),
    )
    def test_domain_errors_come_first(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("PERMUTOEHR_BUDGET", "1")
        _engines_must_not_run(monkeypatch)
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (2, "")

    def test_astronomical_request_refused_with_its_size(self, capsys, monkeypatch):
        monkeypatch.delenv("PERMUTOEHR_BUDGET", raising=False)
        _engines_must_not_run(monkeypatch)
        m = "9" * 4000
        code, out, err = run(capsys, "fpoly", "--m", m, "--stable")
        assert (code, out) == (3, "")
        assert re.search(r"= more than 2\^\d+ exceeds budget 100000000", err)

    # lattice work bounds of 14,000 to 33,000 bits: str() of each would raise
    @pytest.mark.parametrize(
        "argv",
        (
            ("count-points", "--m", "3", "--n", "9" * 2500, "--t", "9" * 2500),
            ("parking", "--m", "9" * 1500),
            ("verify", "--max-t", "9" * 2200),
        ),
        ids=("count-points", "parking", "verify"),
    )
    def test_astronomical_lattice_work_refused_with_its_size(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("PERMUTOEHR_BUDGET", raising=False)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert re.search(r"= more than 2\^\d+ exceeds budget 100000000", err)

    # at m = 3 every operand fits in one word, so a formula route's bound is
    # its loop count; the lattice routes' bound is t*n * (K + 1)(S + 1) * K,
    # verify's that of its oracle's largest count, at (2, 4, max_t); the
    # census routes' is m(m+1)/2 * 4^m for the Hall DP, m * 3^m for the
    # component DP
    @pytest.mark.parametrize(
        "argv, work",
        (
            (("ehrhart", "--m", "3", "--n", "3"), 9),
            (("ehrhart", "--method", "egf-tree", "--m", "3", "--n", "3"), 9),
            (("volume", "--m", "3", "--n", "3"), 3),
            (("fpoly", "--m", "3", "--n", "3"), 9),
            (("fpoly", "--m", "3", "--stable"), 27),
            (("count-points", "--m", "3", "--n", "3", "--t", "2"), 6 * 4 * 13 * 3),
            (("parking", "--m", "3"), 1 * 2 * 4 * 4 * 3),
            (("verify", "--max-m", "2", "--max-t", "1"), 4 * 3 * 8 * 2),
            (("ehrhart", "--method", "postnikov", "--m", "3", "--n", "3"), 6 * 4**3),
            (("ehrhart", "--method", "graphsum", "--m", "3", "--n", "3"), 3 * 3**3),
            (("graphs", "--m", "3", "--stats"), 3 * 3**3),
        ),
    )
    def test_inclusive_at_the_bound(self, capsys, monkeypatch, argv, work):
        monkeypatch.delenv("PERMUTOEHR_BUDGET", raising=False)
        expected = run(capsys, *argv)
        assert expected[0] == 0
        monkeypatch.setenv("PERMUTOEHR_BUDGET", str(work))
        assert run(capsys, *argv) == expected
        monkeypatch.setenv("PERMUTOEHR_BUDGET", str(work - 1))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert f"= {work} exceeds budget {work - 1}" in err

    @pytest.mark.parametrize(
        "argv, stated",
        (
            (("ehrhart", "--method", "postnikov", "--m", "7", "--n", "7"),
             "Hall DP work estimate slots*states m(m+1)/2*4^m = 458752"),
            (("ehrhart", "--method", "graphsum", "--m", "7", "--n", "7"),
             "component DP work estimate vertices*states m*3^m = 15309"),
            (("graphs", "--m", "7", "--stats"),
             "component DP work estimate vertices*states m*3^m = 15309"),
        ),
    )
    def test_census_routes_obey_the_budget_variable(self, capsys, monkeypatch, argv, stated):
        monkeypatch.setenv("PERMUTOEHR_BUDGET", "1")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == f"error: {stated} exceeds budget 1\n"

    @pytest.mark.parametrize(
        "argv, stated",
        (
            (("ehrhart", "--method", "postnikov", "--n", "100000000"),
             "Hall DP work estimate slots*states m(m+1)/2*4^m"),
            (("ehrhart", "--method", "graphsum", "--n", "100000000"),
             "component DP work estimate vertices*states m*3^m"),
            (("graphs", "--stats"), "component DP work estimate vertices*states m*3^m"),
        ),
    )
    def test_huge_census_refused_quickly(self, capsys, monkeypatch, argv, stated):
        # 4^m and 3^m would have hundreds of millions of bits; the refusal
        # states the floor 2^m instead of taking the power
        monkeypatch.delenv("PERMUTOEHR_BUDGET", raising=False)
        code, out, err = run(capsys, *argv, "--m", "100000000")
        assert (code, out) == (3, "")
        assert err == f"error: {stated} = more than 2^100000000 exceeds budget 100000000\n"

    def test_egf_tree_at_the_default_budget(self, capsys, monkeypatch):
        # egf-tree is budgeted as m^2 loops of W*isqrt(W) words, so at n = m
        # the default budget admits it up to m = 316 (m = 317 is refused
        # above), past m = 136
        monkeypatch.delenv("PERMUTOEHR_BUDGET", raising=False)
        code, out, err = run(capsys, "ehrhart", "--m", "136", "--n", "136", "--method", "egf-tree")
        assert (code, err) == (0, "")
        assert out == f"{ehrhart_closed(136, 136)}\n"
        work = 316**2 * (99 * 9)
        assert work <= 10**8
        monkeypatch.setenv("PERMUTOEHR_BUDGET", str(work - 1))
        _engines_must_not_run(monkeypatch)
        code, out, err = run(capsys, "ehrhart", "--m", "316", "--n", "316", "--method", "egf-tree")
        assert (code, out) == (3, "")
        assert err == (
            "error: egf-tree work bound loops*64-bit operand words "
            f"{316**2}*{99 * 9} = {work} exceeds budget {work - 1}\n"
        )

    def test_census_routes_at_the_default_budget(self, capsys, monkeypatch):
        monkeypatch.delenv("PERMUTOEHR_BUDGET", raising=False)
        for m, method in ((10, "postnikov"), (12, "graphsum")):
            code, out, err = run(capsys, "ehrhart", "--m", str(m), "--n", str(m), "--method", method)
            assert (code, err) == (0, "")
            assert out == f"{ehrhart_closed(m, m)}\n"
        code, out, err = run(capsys, "ehrhart", "--m", "12", "--n", "12", "--method", "postnikov")
        assert (code, out) == (3, "")
        assert "m(m+1)/2*4^m = 1308622848 exceeds budget 100000000" in err

    @pytest.mark.parametrize(
        "argv",
        (
            ("ehrhart", "--m", "36", "--n", "41", "--t", "7"),
            ("ehrhart", "--method", "egf", "--m", "36", "--n", "41"),
            ("ehrhart", "--method", "recurrence", "--m", "48", "--n", "53"),
            ("ehrhart", "--method", "egf-tree", "--m", "16", "--n", "21"),
            ("volume", "--m", "36", "--n", "41"),
            ("fpoly", "--m", "36", "--n", "41"),
            ("fpoly", "--m", "36", "--stable"),
        ),
    )
    def test_largest_benchmark_cells_run_under_the_default_budget(
        self, capsys, monkeypatch, argv
    ):
        monkeypatch.delenv("PERMUTOEHR_BUDGET", raising=False)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out


def parse_poly_plain(text):
    """Read back ``str(Poly)``: terms like (p/q)*t^k, c*t, t^k and c."""
    coeffs = {}
    for term in text.replace(" - ", " + -").split(" + "):
        coeff, t, power = term.partition("t")
        sign = -1 if coeff.startswith("-") else 1
        coeff = coeff.lstrip("-").rstrip("*").strip("()")
        coeffs[int(power[1:]) if power else len(t)] = sign * Fraction(coeff or 1)
    return Poly([coeffs.get(i, 0) for i in range(max(coeffs) + 1)])


def parse_facet_plain(line, m):
    """Read back ``str(FacetInequality)``: x_i terms with an optional c* factor."""
    lhs, sense, bound = line.rsplit(" ", 2)
    coeffs = [0] * m
    for term in lhs.split(" + "):
        c, _, i = term.rpartition("x")
        coeffs[int(i) - 1] = int(c.rstrip("*") or 1)
    return tuple(coeffs), sense, int(bound)


def graph_from_edges(m, loops, edges):
    """(loops, pair_mult) from 1-based "i,j" edge labels and their counts."""
    mult = {tuple(int(v) - 1 for v in label.split(",")): int(c) for label, c in edges}
    return tuple(int(c) for c in loops), tuple(mult.get(pair, 0) for pair in vertex_pairs(m))


# every subcommand with a --format, and the library value its output encodes
ROUND_TRIP = {
    "ehrhart": (
        ("ehrhart", "--m", "4", "--n", "5", "--t", "3"),
        lambda: (ehrhart_closed(4, 5), ehrhart_closed(4, 5)(3)),
    ),
    "volume": (("volume", "--m", "4", "--n", "5"), lambda: volume_closed(4, 5)),
    "fpoly": (("fpoly", "--m", "3", "--n", "4"), lambda: f_polynomial(3, 4)),
    "vertices": (
        ("vertices", "--m", "3", "--n", "2"),
        lambda: sorted(PartialPermutohedron(3, 2).vertices()),
    ),
    "facets": (
        ("facets", "--m", "4", "--n", "3"),
        lambda: [(f.coeffs, f.sense, f.bound) for f in PartialPermutohedron(4, 3).facets()],
    ),
    "count-points": (
        ("count-points", "--m", "3", "--n", "3", "--t", "2"), lambda: ehrhart_closed(3, 3)(2)
    ),
    "graphs": (
        ("graphs", "--m", "3"),
        lambda: [(g.loops, g.pair_mult) for g in enumerate_graphs(3)],
    ),
    "graphs --stats": (
        ("graphs", "--m", "4", "--stats"),
        lambda: {tuple(k): c for k, c in graph_census(4).items()},
    ),
    # the parking-function polytope is P(m, m - 1) translated
    "parking": (("parking", "--m", "4"), lambda: ehrhart_closed(4, 3)(1)),
}
# the listings, whose plain form notes the item count on stderr
LISTED = ("vertices", "facets", "graphs")


def read_json(case, payload):
    if case in ("ehrhart", "fpoly"):
        poly = parse_poly_json(payload)
        return poly if case == "fpoly" else (poly, Fraction(payload["value"]))
    if case == "volume":
        return Fraction(payload["volume"])
    if case in ("count-points", "parking"):
        return payload["count"]
    if case == "graphs --stats":
        census = {(r["loops"], r["single"], r["pairs"]): r["count"] for r in payload["census"]}
        assert payload["total"] == sum(census.values())
        return census
    items = payload[case]
    assert payload["count"] == len(items)
    if case == "vertices":
        return [tuple(v) for v in items]
    if case == "facets":
        return [(tuple(f["coeffs"]), f["sense"], f["bound"]) for f in items]
    return [graph_from_edges(3, g["loops"], g["edges"].items()) for g in items]


def read_csv(case, lines):
    # a listed graph's edges hold commas of their own: "1,2:1;2,3:2"
    rows = [line.split(",", 1 if case == "graphs" else -1) for line in lines]
    header, body = rows[0], rows[1:]
    if case in ("ehrhart", "fpoly"):
        poly, value = parse_poly_csv("\n".join(lines))
        return poly if case == "fpoly" else (poly, value)
    if case in ("volume", "count-points", "parking"):
        assert header == ["volume" if case == "volume" else "count"] and len(body) == 1
        return Fraction(body[0][0])
    if case == "graphs --stats":
        assert header == ["loops", "single", "pairs", "count"]
        return {tuple(map(int, r[:3])): int(r[3]) for r in body}
    if case == "vertices":
        assert header == ["x1", "x2", "x3"]
        return [tuple(map(int, r)) for r in body]
    if case == "facets":
        assert header == ["c1", "c2", "c3", "c4", "sense", "bound"]
        return [(tuple(map(int, r[:4])), r[4], int(r[5])) for r in body]
    assert header == ["loops", "edges"]
    edges = ([e.split(":") for e in r[-1].split(";") if e] for r in body)
    return [graph_from_edges(3, r[0].split(), e) for r, e in zip(body, edges)]


def read_plain(case, lines):
    if case in ("ehrhart", "fpoly"):
        poly = parse_poly_plain(lines[0])
        if case == "fpoly":
            assert len(lines) == 1
            return poly
        prefix, value = lines[1].split(": ")
        assert prefix == "value at t=3" and len(lines) == 2
        return poly, Fraction(value)
    if case in ("volume", "count-points", "parking"):
        assert len(lines) == 1
        return Fraction(lines[0])
    if case == "graphs --stats":
        pattern = re.compile(r"loops=(\d+) single=(\d+) pairs=(\d+): (\d+)")
        census = {}
        for line in lines[:-1]:
            *key, count = map(int, pattern.fullmatch(line).groups())
            census[tuple(key)] = count
        assert lines[-1] == f"total: {sum(census.values())}"
        return census
    if case == "vertices":
        return [tuple(map(int, line.split())) for line in lines]
    if case == "facets":
        return [parse_facet_plain(line, 4) for line in lines]
    out = []
    for line in lines:
        loops, edges = re.fullmatch(r"loops=\((.*)\) edges: (.*)", line).groups()
        edges = [] if edges == "-" else [e.strip("{").split("}x") for e in edges.split()]
        out.append(graph_from_edges(3, loops.replace(",", " ").split(), edges))
    return out


class TestEveryEncodingReadsBack:
    @pytest.mark.parametrize("fmt", ("plain", "csv", "json"))
    @pytest.mark.parametrize("case", ROUND_TRIP)
    def test_output_parses_back_to_the_library_value(self, capsys, case, fmt):
        argv, library_value = ROUND_TRIP[case]
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert code == 0
        if fmt == "json":
            payload = json.loads(out)
            assert payload["command"] == argv[0]
            assert isinstance(payload["elapsed_ms"], int)
            value = read_json(case, payload)
        elif fmt == "csv":
            value = read_csv(case, out.splitlines())
        else:
            value = read_plain(case, out.splitlines())
        assert value == library_value()
        noted = fmt == "plain" and case in LISTED
        assert err == (f"# {len(value)} {case}\n" if noted else "")


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

    # the oracle's largest count, at (m, n, t) = (2, 4, max_t), has work bound
    # t * 4 * 3 * (7t + 1) * 2: 100143840 at t = 772, past the default budget
    @pytest.mark.parametrize("max_t, work", (("772", 100143840), ("100000", 1680002400000)))
    def test_unbounded_max_t_refused_before_any_check(self, capsys, monkeypatch, max_t, work):
        def must_not_run(*args):
            raise AssertionError("a check ran")

        monkeypatch.setattr(verify_module, "check_engine_agreement", must_not_run)
        code, out, err = run(capsys, "verify", "--max-m", "2", "--max-t", max_t)
        assert (code, out) == (3, "")
        assert err == (
            "error: lattice DP work bound values*states*run lengths "
            f"tn*(K+1)(S+1)*K = {work} exceeds budget 100000000\n"
        )

    def test_budget_env_bounds_the_oracle(self, capsys, monkeypatch):
        # the oracle's largest count, at (2, 4, 1), has work bound 4 * 3 * 8 * 2
        monkeypatch.setenv("PERMUTOEHR_BUDGET", "1")
        code, out, err = run(capsys, "verify", "--max-m", "2", "--max-t", "1")
        assert (code, out) == (3, "")
        assert err == (
            "error: lattice DP work bound values*states*run lengths "
            "tn*(K+1)(S+1)*K = 192 exceeds budget 1\n"
        )

    def test_budget_env_bounds_the_census_dps(self, capsys, monkeypatch):
        # at max_m = 4 the Hall DP's estimate, 10 * 4^4 = 2560, is the
        # largest: the oracle's bound, the component DP's estimate at m = 5
        # (1215) and the listing at m = 4 are smaller
        def must_not_run(*args):
            raise AssertionError("a check ran")

        argv = ("verify", "--max-m", "4", "--max-t", "1")
        _, default_out, _ = run(capsys, *argv)
        monkeypatch.setenv("PERMUTOEHR_BUDGET", "2559")
        with monkeypatch.context() as patched:
            patched.setattr(verify_module, "check_engine_agreement", must_not_run)
            code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == (
            "error: Hall DP work estimate slots*states m(m+1)/2*4^m = 2560 exceeds budget 2559\n"
        )
        monkeypatch.setenv("PERMUTOEHR_BUDGET", "2560")
        assert run(capsys, *argv)[:2] == (0, default_out)

    def test_max_m_cap_states_the_listing_size(self, capsys):
        code, out, err = run(capsys, "verify", "--max-m", "7")
        assert code == 2
        assert out == ""
        assert "max_m is capped at 6 to keep the run short" in err
        assert "1,261,748 graphs and as many sequences" in err


class TestParserBehaviour:
    def test_unknown_method_rejected_by_argparse(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["ehrhart", "--m", "2", "--n", "2", "--method", "sampling"])
        assert excinfo.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2


# Each subcommand's options in a well-formed argv: per option, the token
# pairs it may contribute, () leaving it out.
_M, _N = [("--m", "3")], [("--n", "4")]
_FORMAT = [(), *(("--format", f) for f in ("plain", "json", "csv"))]
WELL_FORMED_GRID = {
    "ehrhart": [_M, _N, [(), ("--t", "5")], [(), *(("--method", x) for x in METHOD_NAMES)],
                _FORMAT],
    "volume": [_M, _N, _FORMAT],
    "fpoly": [_M, [(), ("--n", "4")], [(), ("--stable",)], _FORMAT],
    "vertices": [_M, _N, _FORMAT],
    "facets": [_M, _N, _FORMAT],
    "count-points": [_M, _N, [("--t", "5")], _FORMAT],
    "graphs": [_M, [(), ("--stats",)], _FORMAT],
    "parking": [_M, _FORMAT],
    "verify": [[(), ("--max-m", "2")], [(), ("--max-t", "+1")], [(), ("--seed", "0012")]],
}


def well_formed_argvs(subcommand):
    """Every combination of the grid's options, in the table's order and
    reversed, with each flag repeated (store_true flags as they are, int
    options first given 7, so the last value must win)."""
    for combo in itertools.product(*WELL_FORMED_GRID[subcommand]):
        pairs = [pair for pair in combo if pair]
        earlier = [(p[0], "7") if len(p) == 2 and p[1].lstrip("+").isdigit() else p
                   for p in pairs]
        for order in (pairs, pairs[::-1], earlier + pairs):
            yield [subcommand, *itertools.chain.from_iterable(order)]


# argv that the option table declines, each left to argparse
DECLINED_ARGVS = [
    ["ehrhart", "--meth", "closed", "--m", "2", "--n", "2"],
    ["ehrhart", "--m=2", "--n", "2"],
    ["-h"],
    ["ehrhart", "--help"],
    ["ehrhart", "--m", "2"],
    ["ehrhart", "--m", "x", "--n", "2"],
    ["ehrhart", "--m", "-1", "--n", "2"],
    ["verify", "--max-m", "2", "--max-t", "1", "--seed", "-5"],
    ["ehrhart", "--m", "2", "--n", "2", "--method", "sampling"],
    ["frobnicate", "--m", "2"],
    ["verify", "--format", "json"],
    ["ehrhart", "--n", "2", "--m"],
    ["ehrhart", "--", "--m", "2", "--n", "2"],
    ["ehrhart", "--m", 2, "--n", "2"],
    ["ehrhart", "--m", "", "--n", "2"],
    ["graphs", "--m", "3", "--stats", "extra"],
    [],
]


def outcome(capsys, argv):
    """main(argv) as (exit code, or the SystemExit code, or the exception
    raised), stdout, stderr."""
    try:
        result = main(argv)
    except SystemExit as exc:
        result = ("SystemExit", exc.code)
    except Exception as exc:  # argparse on a token that is not a str
        result = (type(exc), str(exc))
    captured = capsys.readouterr()
    return result, captured.out, captured.err


class TestOptionTable:
    @pytest.mark.parametrize("subcommand", WELL_FORMED_GRID)
    def test_table_parse_matches_argparse(self, subcommand):
        def typed(args):  # True and 1 are equal, but json writes them apart
            return {key: (type(value), value) for key, value in vars(args).items()}

        parser = cli_module.build_parser()
        argvs = list(well_formed_argvs(subcommand))
        assert len(argvs) >= 3
        for argv in argvs:
            args = cli_module._parse_canonical(argv)
            assert args is not None, argv
            assert typed(args) == typed(parser.parse_args(argv)), argv

    @pytest.mark.parametrize("argv", DECLINED_ARGVS, ids=repr)
    def test_everything_else_goes_to_argparse(self, capsys, monkeypatch, argv):
        assert cli_module._parse_canonical(argv) is None
        got = outcome(capsys, argv)
        monkeypatch.setattr(cli_module, "_parse_canonical", lambda argv: None)
        assert got == outcome(capsys, argv)

    @pytest.mark.parametrize(
        "argv",
        (
            ("ehrhart", "--m", "3", "--n", "4"),
            ("count-points", "--m", "2", "--n", "3", "--t", "2"),
            ("parking", "--m", "4"),
            ("graphs", "--m", "3", "--stats"),
            ("verify", "--max-m", "1", "--max-t", "1"),
        ),
    )
    def test_canonical_argv_builds_no_parser(self, capsys, monkeypatch, argv):
        with monkeypatch.context() as patched:
            patched.setattr(cli_module, "_parse_canonical", lambda argv: None)
            expected = outcome(capsys, argv)
        assert expected[0] == 0

        def refuse(self, *args, **kwargs):
            raise AssertionError("an argparse parser was built")

        cli_module._shared_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
        assert outcome(capsys, argv) == expected


def package_env():
    """The environment with this package's sources first on PYTHONPATH."""
    src = str(Path(permutoehr.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


class TestModuleEntryPoint:
    @pytest.mark.parametrize(
        "argv",
        (
            ("ehrhart", "--m", "2", "--n", "2"),
            ("ehrhart", "--m", "3", "--n", "1"),
            ("ehrhart", "--m=2", "--n", "2"),
            ("ehrhart", "--meth", "closed", "--m", "2", "--n", "2"),
        ),
    )
    def test_python_m_matches_main(self, capsys, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "permutoehr", *argv],
            capture_output=True, text=True, env=package_env(), timeout=120,
        )
        code, out, err = run(capsys, *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)

    def test_closed_pipe_exits_141_without_a_traceback(self):
        # 13700 vertices, 191800 bytes: more than a pipe holds, so the
        # listing is still being written when the reader goes
        proc = subprocess.Popen(
            [sys.executable, "-m", "permutoehr", "vertices", "--m", "7", "--n", "7"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=package_env(),
        )
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=120)
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert first == "0 0 0 0 0 0 0\n"
        assert (code, err) == (141, "")

    def test_import_leaves_out_what_only_some_commands_use(self):
        # each costs every process its import time; argparse serves only
        # help and malformed argv, json only --format json, verify only
        # the verify subcommand
        unused = ("dataclasses", "inspect", "argparse", "json", "permutoehr.verify")
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, permutoehr.cli; print(*sorted(set({unused!r}) & set(sys.modules)))"],
            capture_output=True, text=True, env=package_env(), timeout=120,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n", "")
