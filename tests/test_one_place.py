"""Each concept below is written in one module of ``src/synthvid``, its home.

The renderer and the track generator must agree on which faces point at the
camera and where a point lands in the image, every JSON document goes
through one codec, one set of number types decides what a JSON number is,
alone or as an array element, only the codec catches a ``FormatError`` to
find the first fault in document order, and a config field's type and
vector axes are read from the one field table.  A copy of any of these in
another module is the start of a second model, so this scan fails when a
pattern shows up outside its home.

A track set is checked by one set of rules, whether it is built one track
at a time, in bulk or read from a file, so each rule's message is written
exactly once in the package.
"""

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "synthvid"

# concept -> (home module, a pattern only the home module may contain)
CONCEPTS = {
    "json-import": ("jsondoc.py", r"^\s*(?:import\s+(?:[\w.]+\s*,\s*)*json\b|from\s+json\b)"),
    "json-number-types": ("jsondoc.py", r"\{int, float\}"),
    "json-first-fault": ("jsondoc.py", r"except (?:jsondoc\.)?FormatError"),
    "face-cross-product": ("meshes.py", r"np\.cross\(.*? - "),
    "face-centroid": ("meshes.py", r"\) / 3\.0\b"),
    "facing-test": ("meshes.py", r"einsum\(.*position - "),
    "world-to-camera": ("camera_rig.py", r"\.rotation\.T\b"),
    "pixel-mapping": ("camera_rig.py", r"/ 2\.0 \+ \w+ \* \w+"),
    "config-vector-axes": ("scene_config.py", r'\bin "(?:xyz|rgba?)"'),
    "config-field-type-switch": ("scene_config.py", r"\bkind is (?:float|str)\b"),
}


@pytest.mark.parametrize("concept", list(CONCEPTS))
def test_each_concept_lives_in_one_module(concept):
    home, pattern = CONCEPTS[concept]
    holders = {path.name for path in sorted(SRC.glob("*.py"))
               if re.search(pattern, path.read_text(), re.MULTILINE)}
    assert holders == {home}, f"{concept} belongs in {home} alone; found in {sorted(holders)}"


# the messages of the track rules: a track's point id and observations, and a
# track set's point ids and frame range
TRACK_RULE_MESSAGES = (
    r"point_id: expected an integer, got",
    r"a track needs at least two observations",
    r"observation frame indices must be strictly increasing",
    r"pixels: \{\w+\} is not finite",
    r"\{key\}: expected a \{dims\} array of",
    r"repeats tracks\[\{\w+\}\]\.point_id",
    r"names no camera",
)


@pytest.mark.parametrize("message", TRACK_RULE_MESSAGES)
def test_each_track_rule_message_is_written_once(message):
    places = [f"{path.name}:{n}" for path in sorted(SRC.glob("*.py"))
              for n, line in enumerate(path.read_text().splitlines(), 1)
              if re.search(message, line)]
    assert len(places) == 1, f"{message!r} is written in {places}"
