import contextlib
import io
import re
from pathlib import Path

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
    assert float(fraction) >= 0.9
