"""Package errors survive pickling, as they must to leave a worker process
of ``coexlab run --replicas`` with their type, message and attributes."""

import pickle

import pytest

from coexlab import errors
from coexlab.errors import CoexlabError
from coexlab.strategy import Diagnostic

DIAGNOSTICS = [Diagnostic("rules[0].when", "unknown trigger signal 'x'"),
               Diagnostic("base_action", "must have 10 entries")]
ATTEMPTS = [{"attempt": 0, "response": "{", "diagnostics": []},
            {"attempt": 1, "response": "[]", "diagnostics": [
                {"path": "$", "message": "not an object"}]}]

# constructor arguments and custom attributes of the errors that take more
# than a message
CUSTOM = {
    errors.InvalidScenarioError: (("nodes[0].q", "bad"),
                                  {"path": "nodes[0].q"}),
    errors.BackendUnavailableError: (("gave up after 3 tries", 503),
                                     {"status": 503}),
    errors.StrategyParseError: ((DIAGNOSTICS,), {"diagnostics": DIAGNOSTICS}),
    errors.MaterializationExhaustedError: ((ATTEMPTS,),
                                           {"attempts": ATTEMPTS}),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


ALL_ERRORS = sorted(set(_subclasses(CoexlabError)) | {CoexlabError},
                    key=lambda cls: cls.__name__)


def test_every_custom_constructor_is_covered():
    custom = {cls for cls in ALL_ERRORS if "__init__" in vars(cls)}
    assert custom == set(CUSTOM)


@pytest.mark.parametrize("cls", ALL_ERRORS, ids=lambda cls: cls.__name__)
def test_error_round_trips_through_pickle(cls):
    args, attrs = CUSTOM.get(cls, (("something went wrong",), {}))
    exc = cls(*args)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    for name, value in attrs.items():
        assert getattr(back, name) == value, name
