import pytest

from courant_lab.bundle import HomSection


@pytest.fixture
def hom_apply_calls(monkeypatch):
    """The sections HomSection.apply is called on while the test runs."""
    calls = []
    real = HomSection.apply

    def counting(self, section):
        calls.append(section)
        return real(self, section)

    monkeypatch.setattr(HomSection, "apply", counting)
    return calls
