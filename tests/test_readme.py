import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_python_quick_start_runs(capsys):
    # the first python block of the README, run as written under the
    # suite's warnings-as-errors, guards the documented API
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                      re.DOTALL)
    exec(compile(block.group(1), str(README), "exec"), {})
    assert capsys.readouterr().out
