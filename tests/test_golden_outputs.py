"""The default runs write the bytes recorded in ``tests/golden_outputs.json``.

The file holds a sha256 digest of the CSV bytes and of the JSON text (with
``wall_time_s`` blanked) of each of the seven default runs at seeds 0, 2
and 3, as the command line writes them.  ``python3 tools/same_outputs.py
--golden`` rewrites it; a change that moves default-run bytes on purpose
commits the new file, and its diff names the runs that moved.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import scipy

from lsalab.experiments import (
    EXPERIMENT_NAMES,
    ExperimentConfig,
    csv_text,
    json_text,
    resolve,
    run,
)

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
SAME_OUTPUTS = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(SAME_OUTPUTS)


def test_default_runs_match_the_golden_digests():
    golden = json.loads(SAME_OUTPUTS.GOLDEN.read_text(encoding="utf-8"))
    made_with = (golden["numpy"], golden["scipy"])
    here = (np.__version__, scipy.__version__)
    assert made_with == here, (
        f"the golden digests were made with numpy {made_with[0]} and scipy "
        f"{made_with[1]}, this interpreter has numpy {here[0]} and scipy {here[1]}; "
        "rerun `python3 tools/same_outputs.py --golden <rev>` at a revision "
        "whose outputs are trusted"
    )
    digests = {}
    for experiment in EXPERIMENT_NAMES:
        for seed in SAME_OUTPUTS.DEFAULT_SEEDS:
            config = resolve(ExperimentConfig(experiment=experiment, seed=seed))
            rows = run(config)
            digests[SAME_OUTPUTS.golden_key(experiment, seed)] = SAME_OUTPUTS.golden_entry(
                csv_text(experiment, rows).encode("utf-8"),
                SAME_OUTPUTS.blank_wall_time(json_text(experiment, rows, config, 0.0)),
            )
    moved = sorted(
        f"{key} {part}"
        for key in golden["runs"].keys() | digests.keys()
        for part in ("csv", "json")
        if golden["runs"].get(key, {}).get(part) != digests.get(key, {}).get(part)
    )
    assert not moved, f"default runs whose bytes moved: {', '.join(moved)}"
