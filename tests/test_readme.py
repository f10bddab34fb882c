import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_usage_runs(capsys):
    # the documented usage runs as written: its one python block
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    value = float(capsys.readouterr().out.split()[0])
    # coverage of 3 items by a rank-2 uniform matroid: the optimum is 2,
    # and the ladder reaches 1.21, above (1 - 1/e - eps) * 2
    assert (1 - math.exp(-1) - 0.05) * 2 <= value <= 2.0
