"""The YAML loaders ``ringflow.scenario`` can read with, for tests that
must cover both: the one it picks (libyaml's C loader where PyYAML was
built with it) and PyYAML's pure-Python one, which machines without libyaml
use."""

from contextlib import contextmanager

import pytest
import yaml

import ringflow.scenario

#: name -> the codec accessor ``ringflow.scenario`` reads it through
_ACCESSORS = {
    "default": ringflow.scenario._codec,
    "pure-python": lambda: yaml.SafeLoader,
}
#: name -> loader
CODECS = {name: accessor() for name, accessor in _ACCESSORS.items()}


@contextmanager
def scenario_codec(name: str):
    """Read scenarios with codec ``name`` inside the block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ringflow.scenario, "_codec", _ACCESSORS[name])
        yield
