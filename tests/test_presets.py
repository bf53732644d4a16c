import pathlib

import pytest

from ordlat import presets
from ordlat.serialize import dumps, presentation_to_json

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def test_registry_contents():
    assert {"limitq", "twoblock", "gridrows", "two_prime", "limit_power"} <= set(
        presets.PRESETS
    )
    for name in presets.PRESETS:
        p = presets.load(name)
        assert p.name == name
        assert p.generators


def test_load_builds_each_preset_once():
    for name in presets.PRESETS:
        assert presets.load(name) is presets.load(name)


def test_load_unknown_name():
    with pytest.raises(KeyError) as exc:
        presets.load("no_such_preset")
    assert "no_such_preset" in str(exc.value)


@pytest.mark.parametrize("name", sorted(presets.PRESETS))
def test_data_file_is_the_preset(name):
    # scripts/make_presentations.py writes these files
    want = dumps(presentation_to_json(presets.load(name))) + "\n"
    assert (DATA / f"{name}.json").read_text() == want
