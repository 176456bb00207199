"""tools/law_atlas.py: a slice of the accuracy atlas, its keys and its determinism."""

import json
import os
import sys
import warnings

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "tools"))

import law_atlas  # noqa: E402


def test_atlas_slice_is_deterministic_and_keeps_its_keys():
    texts = []
    for run in range(2):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            texts.append(json.dumps(law_atlas.atlas(["three_modes"], [40.0], 21), indent=2))
    assert texts[0] == texts[1]
    atlas = json.loads(texts[0])
    assert sorted(atlas) == ["commit", "max_rel_dev", "modes", "numpy", "oracle", "points",
                             "src_modified"]
    assert atlas["oracle"] == {"abs_tol": 1e-13, "rel_tol": 1e-11}
    assert atlas["points"] == 21 and list(atlas["modes"]) == ["three_modes"]
    bands = atlas["max_rel_dev"]["three_modes"]["40"]
    assert list(bands) == ["[2, 11]", "[11, 20]"]
    assert all(value > 0.0 for value in bands.values())
