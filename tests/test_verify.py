import pytest

from permutoehr import ehrhart, graphs, verify
from permutoehr.cli import main
from permutoehr.errors import BudgetError


class TestRunAll:
    def test_all_pass_at_small_scale(self):
        results = verify.run_all(max_m=3, max_t=2, seed=0)
        assert results
        failing = [r.name for r in results if not r.passed]
        assert failing == []
        names = {r.name for r in results}
        assert "closed-vs-postnikov" in names
        assert "closed-vs-brute-force" in names
        assert "tree-coefficient-transfer" in names

    def test_lines_are_printable(self):
        for result in verify.run_all(max_m=2, max_t=1, seed=1):
            line = result.line()
            assert line.startswith("PASS ") or line.startswith("FAIL ")

    def test_seed_reproducible(self):
        a = verify.check_transfer_identity(seed=42)
        b = verify.check_transfer_identity(seed=42)
        assert a == b

    def test_oracle_counts_within_the_budget(self, monkeypatch):
        # the largest count, at (2, 4, 1), has work bound 192
        monkeypatch.setenv("PERMUTOEHR_BUDGET", "192")
        assert verify.check_oracle_agreement(2, 1).passed
        monkeypatch.setenv("PERMUTOEHR_BUDGET", "191")
        with pytest.raises(BudgetError, match="= 192 exceeds budget 191"):
            verify.check_oracle_agreement(2, 1)

    def test_rejects_bad_max_m(self):
        with pytest.raises(ValueError):
            verify.run_all(max_m=0)

    @pytest.mark.parametrize("name, value", (
        ("max_m", True), ("max_m", 2.0), ("max_t", False), ("seed", 1.5), ("seed", "a"),
    ))
    def test_rejects_a_non_int_argument_before_any_check(self, monkeypatch, name, value):
        def must_not_run(*args):
            raise AssertionError("a check ran")

        monkeypatch.setattr(verify, "check_engine_agreement", must_not_run)
        arguments = {"max_m": 1, "max_t": 1, "seed": 1, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            verify.run_all(**arguments)

    def test_huge_max_m_refused_before_any_work_estimate(self, monkeypatch):
        # the census DPs are refused on the floor 2^max_m, as the routes
        # are, without computing either 4^max_m or 3^max_m
        def must_not_run(m):
            raise AssertionError("a census work estimate was computed")

        monkeypatch.setattr(graphs, "hall_work", must_not_run)
        monkeypatch.setattr(graphs, "component_work", must_not_run)
        with pytest.raises(BudgetError, match=r"= more than 2\^1000000000 exceeds"):
            verify.run_all(max_m=10**9)

    def test_structure_counts_checked_past_the_listing_bound(self, monkeypatch):
        # the component DP has its own budget; the listings' entries do
        # not clip the check
        seen, structure_counts = [], graphs.structure_counts

        def counted(m):
            seen.append(m)
            return structure_counts(m)

        monkeypatch.setattr(graphs, "structure_counts", counted)
        lines = [r.line() for r in verify.check_structure_counts(9)]
        assert lines == [
            "PASS structure-counts-closed-forms: m <= 9 match",
            "PASS quasitree-count-vs-series: m <= 9 match",
        ]
        assert seen == list(range(1, 10))


class TestFaultInjection:
    def test_corrupted_double_factorial_is_caught(self, monkeypatch):
        good = ehrhart.double_factorial

        def flipped(k):
            return -good(k)

        monkeypatch.setattr(ehrhart, "double_factorial", flipped)
        results = {r.name: r for r in verify.check_engine_agreement(max_m=3)}
        assert not results["closed-vs-postnikov"].passed

    def test_corrupted_census_is_caught(self, monkeypatch):
        import permutoehr.ehrhart as engine_module

        good = engine_module.graph_census

        def shaved(m, *rest):
            census = dict(good(m, *rest))
            key = next(iter(census))
            census[key] += 1
            return census

        monkeypatch.setattr(engine_module, "graph_census", shaved)
        results = {r.name: r for r in verify.check_engine_agreement(max_m=3)}
        assert not results["closed-vs-graphsum"].passed

    def test_corrupted_census_sum_is_caught_on_both_engines(self, monkeypatch):
        # the two combinatorial engines share _census_sum by design; each is
        # compared with closed, so a fault there shows on both lines
        good = ehrhart._census_sum

        def shifted(census, m, n):
            return good(census, m, n + 1)

        monkeypatch.setattr(ehrhart, "_census_sum", shifted)
        results = {r.name: r for r in verify.check_engine_agreement(max_m=3)}
        assert not results["closed-vs-postnikov"].passed
        assert not results["closed-vs-graphsum"].passed
        assert results["closed-vs-recurrence"].passed

    def test_listing_mismatch_is_caught(self, monkeypatch):
        good = graphs.enumerate_sequences

        def short(m):
            return list(good(m))[:-1]

        monkeypatch.setattr(graphs, "enumerate_sequences", short)
        results = {r.name: r for r in verify.check_bijection(max_m=3)}
        assert not results["bijection-round-trip"].passed
        assert "the listings differ" in results["bijection-round-trip"].detail

    def test_round_trip_is_checked_on_every_graph_past_m4(self, monkeypatch, capsys):
        good = graphs.from_multigraph

        def wrong_at_m5(graph):
            seq = good(graph)
            if graph.m != 5:
                return seq
            return graphs.EdgeMultiplicities(5, (seq.loop[0] + 1, *seq.loop[1:]), seq.pair)

        monkeypatch.setattr(graphs, "from_multigraph", wrong_at_m5)
        assert main(["verify", "--max-m", "4"]) == 0
        assert "PASS bijection-round-trip: identity on every graph" in capsys.readouterr().out
        assert main(["verify", "--max-m", "5"]) == 1
        out = capsys.readouterr().out
        assert "FAIL bijection-round-trip: failed at m=5\n" in out
        assert "11/12 checks passed" in out
