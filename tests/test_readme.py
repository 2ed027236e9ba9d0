import contextlib
import io
import re
from pathlib import Path

from distbeam.experiments import CONFIG_SCHEMA, ExperimentConfig, config_from_items

README = Path(__file__).parents[1] / "README.md"


def test_quick_start_runs():
    # the README's only Python example runs as written against the package
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    converged, n_steps, fraction = out.getvalue().split()
    assert converged == "True"
    assert 0 < int(n_steps) <= 2000
    assert int(n_steps) == 285
    assert float(fraction) >= 0.9


def test_config_key_table_matches_the_schema():
    # the "Config files" table lists every key in dump order, with its default
    text = README.read_text(encoding="utf-8")
    table = re.search(r"^\| key +\| meaning +\| default +\|\n\|[-| ]+\|\n((?:\|.*\n)+)", text, re.M)
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in table.group(1).splitlines()]
    keys = [key.strip("`") for key, _, _ in rows]
    assert keys == list(CONFIG_SCHEMA)
    defaults = {key: "" if value == "empty" else value.strip("`")
                for key, (_, _, value) in zip(keys, rows)}
    assert config_from_items(defaults) == ExperimentConfig()
