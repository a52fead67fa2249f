import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name) wraps owner.name for this test and returns
    the list of argument tuples of its calls."""

    def install(owner, name):
        calls = []
        fn = getattr(owner, name)

        def counted(*args):
            calls.append(args)
            return fn(*args)

        monkeypatch.setattr(owner, name, counted)
        return calls

    return install
