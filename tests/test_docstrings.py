"""The examples in the package's docstrings run and print what they show."""
import doctest
import importlib
import inspect
import pkgutil

import sturmian

MODULES = ["sturmian"] + [m.name for m in pkgutil.iter_modules(sturmian.__path__, "sturmian.")]


def test_docstring_examples():
    failed, attempted, written = {}, 0, 0
    for name in MODULES:
        module = importlib.import_module(name)
        result = doctest.testmod(module)
        if result.failed:
            failed[name] = result.failed
        attempted += result.attempted
        written += inspect.getsource(module).count(">>> ")
    assert failed == {}
    # Every example written in a docstring was run; none was skipped unseen.
    assert attempted == written > 0
