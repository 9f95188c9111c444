"""Module boundaries: each decision is known to one module.

Only `core.memoized` keeps values in an instance's `__dict__`, and only
`aggregation` (the operators) and `engine` (the window-feature model) name
the aggregate's width, its default specs or the prediction head.
"""

import pathlib
import re

import modalsim

SRC = pathlib.Path(modalsim.__file__).parent
SOURCES = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
FEATURE_MODEL = ("aggregate_output_dim", "DEFAULT_SHIFT", "DEFAULT_DIFF", "prediction_head")


def test_only_core_touches_instance_dicts():
    assert [name for name, text in SOURCES.items() if "__dict__" in text] == ["core.py"]


def test_only_aggregation_and_engine_name_the_feature_model():
    named = {
        name: [word for word in FEATURE_MODEL if re.search(rf"\b{word}\b", text)]
        for name, text in SOURCES.items()
        if name not in ("aggregation.py", "engine.py")
    }
    assert {name: words for name, words in named.items() if words} == {}
