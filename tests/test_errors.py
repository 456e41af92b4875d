import inspect
import pickle

import pytest

from hafcp import errors

# constructor arguments of the errors whose __init__ is their own; every
# other error takes its message
OWN_ARGS = {
    errors.UnparseableCell: (7, "Age", "not a number"),
    errors.DegenerateColumn: ("Age",),
    errors.MissingSpec: ("Age",),
    errors.TooManyCategories: ("Account", 1001, 1000),
    errors.DuplicateItemName: ("a=b=c", "a", "a=b"),
    errors.MissingImportance: ("Age",),
}

ERRORS = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
          if issubclass(cls, errors.HafcpError)]


def test_own_args_name_every_own_constructor():
    assert {cls for cls in ERRORS if "__init__" in vars(cls)} == set(OWN_ARGS)


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_error_survives_pickling(cls):
    error = cls(*OWN_ARGS.get(cls, ("a message",)))
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is cls
    assert str(back) == str(error)
    assert back.args == error.args
    assert back.__dict__ == error.__dict__
