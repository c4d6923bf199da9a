"""The YAML codecs ``ringflow.scenario`` can run on, for tests that must
cover both: the one it picks (libyaml's C codec where PyYAML was built with
it) and PyYAML's pure-Python one, which machines without libyaml use."""

from contextlib import contextmanager

import pytest
import yaml

import ringflow.scenario

#: name -> the codec accessor ``ringflow.scenario`` reads it through
_ACCESSORS = {
    "default": ringflow.scenario._codec,
    "pure-python": lambda: (yaml.SafeLoader, yaml.SafeDumper),
}
#: name -> (loader, dumper)
CODECS = {name: accessor() for name, accessor in _ACCESSORS.items()}


@contextmanager
def scenario_codec(name: str):
    """Read and write scenarios with codec ``name`` inside the block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ringflow.scenario, "_codec", _ACCESSORS[name])
        yield
