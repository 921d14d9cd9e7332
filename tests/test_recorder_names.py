"""Every function that the traced benchmark wraps must exist.

bench/worker.py installs bench/recorder.py in its `cli` mode on every call,
and the recorder looks up each (module, attribute) of its tables; a renamed
or deleted function would make every traced CLI call fail.
"""

import importlib
import importlib.util
import os

import pytest

RECORDER = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "recorder.py")


def _recorder():
    spec = importlib.util.spec_from_file_location("bench_recorder", RECORDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrapped_names():
    rec = _recorder()
    return sorted(key for table in (rec.SPANS, rec.COUNTS, rec.TALLIES, rec.NAMED_SPANS)
                  for key in table)


@pytest.mark.parametrize("module,attr", _wrapped_names())
def test_recorded_name_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
