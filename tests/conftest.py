import pytest


@pytest.fixture(autouse=True)
def default_budget(monkeypatch):
    """Every test starts at the default work budget, whatever the shell
    exports: the library reads ``PERMUTOEHR_BUDGET`` at each refusal, and
    many tests state the default in their expected refusals."""
    monkeypatch.delenv("PERMUTOEHR_BUDGET", raising=False)
