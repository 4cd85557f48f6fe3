"""The README's library example runs and prints what it promises."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_mass_equals_fidelity(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    mass, fidelity = (float(v) for v in capsys.readouterr().out.split())
    assert 0.0 < mass <= 1.0
    assert abs(mass - fidelity) <= 1e-10
