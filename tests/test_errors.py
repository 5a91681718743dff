"""Every coded error survives pickling: the copy keeps its class, code,
message and attributes, so an error can cross a process boundary."""

import inspect
import pickle

import pytest

from ome_rdf import errors


def _one_of_each():
    """One instance of every error class in :mod:`ome_rdf.errors`, built
    through its own ``__init__`` from made-up arguments."""
    instances = []
    for cls in vars(errors).values():
        if not (isinstance(cls, type) and issubclass(cls, errors.OmeRdfError)):
            continue
        if cls.__init__ is Exception.__init__:
            args = ["a message"]
        else:
            names = list(inspect.signature(cls.__init__).parameters)[1:]
            args = [f"the {name}" for name in names]
        instances.append(cls(*args))
    # an error that carries another as its cause
    instances.append(errors.MappingFailedError("IMG1", errors.BadValueError(3, "voltage", "x")))
    return instances


@pytest.mark.parametrize("error", _one_of_each(), ids=lambda e: type(e).__name__)
@pytest.mark.parametrize("protocol", [0, pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL])
def test_pickling_keeps_class_code_message_and_attributes(error, protocol):
    copy = pickle.loads(pickle.dumps(error, protocol))
    assert type(copy) is type(error)
    assert (copy.code, str(copy), copy.args) == (error.code, str(error), error.args)
    # an attribute that is itself an error compares by its repr
    assert {k: repr(v) for k, v in vars(copy).items()} == {
        k: repr(v) for k, v in vars(error).items()}

