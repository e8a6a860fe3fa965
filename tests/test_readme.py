import re

import numpy as np

from urelunet.dataset import load_csv

from conftest import REPO

TRAIN_STATUSES = {"max_iter", "grad_tol", "step_tol", "stalled"}


def library_example() -> str:
    """The ```python block under the README's "## Library example" heading."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library example\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs_on_the_desk_record(desk_pipeline, monkeypatch):
    # the example's config path is relative to the repository root
    monkeypatch.chdir(REPO)
    data = load_csv(desk_pipeline["train_csv"])
    scope = {"u": data.u, "y": data.y}
    exec(compile(library_example(), "README.md", "exec"), scope)
    assert scope["y_sim"].shape == data.u.shape
    assert np.all(np.isfinite(scope["y_sim"]))
    value, index = scope["score"]
    assert np.isfinite(value) and index is None
    assert scope["rep"].status in TRAIN_STATUSES
    # the same network that `fit` wrote on this record with this config
    assert scope["net"].to_json() + "\n" == desk_pipeline["model"].read_text(encoding="utf-8")
