"""The YAML codecs ``ringflow.scenario`` can run on, for tests that must
cover both: the one it picked at import (libyaml's C codec where PyYAML
was built with it) and PyYAML's pure-Python one, which machines without
libyaml use."""

from contextlib import contextmanager

import pytest
import yaml

import ringflow.scenario

#: name -> (loader, dumper)
CODECS = {
    "default": (ringflow.scenario._LOADER, ringflow.scenario._DUMPER),
    "pure-python": (yaml.SafeLoader, yaml.SafeDumper),
}


@contextmanager
def scenario_codec(name: str):
    """Read and write scenarios with codec ``name`` inside the block."""
    loader, dumper = CODECS[name]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ringflow.scenario, "_LOADER", loader)
        patch.setattr(ringflow.scenario, "_DUMPER", dumper)
        yield
