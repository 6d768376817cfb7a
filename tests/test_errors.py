"""Tests for the package's exception types."""

import pickle

import pytest

from flowclean import errors
from flowclean.errors import FlowcleanError, ParseError


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


ERROR_TYPES = sorted(
    (c for c in _subclasses(FlowcleanError) if c.__module__ == errors.__name__),
    key=lambda c: c.__name__,
)


def _example(cls):
    if cls is ParseError:
        return ParseError("bad predicate", 3, "f.rules")
    return cls("something went wrong")


@pytest.mark.parametrize("cls", ERROR_TYPES, ids=lambda c: c.__name__)
def test_error_round_trips_through_pickle(cls):
    # errors raised in a worker process reach the caller pickled
    error = _example(cls)
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error)


@pytest.mark.parametrize("file", ["f.rules", None])
def test_parse_error_keeps_reason_line_and_file(file):
    copy = pickle.loads(pickle.dumps(ParseError("bad predicate", 3, file)))
    assert (copy.reason, copy.line, copy.file) == ("bad predicate", 3, file)
    assert str(copy) == ("f.rules:3: bad predicate" if file else "line 3: bad predicate")
