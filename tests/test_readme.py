import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs_and_prints_what_its_comment_says(capsys):
    text = README.read_text(encoding="utf-8")
    code = re.search(r"## Library use\n\n```python\n(.*?)```", text, re.DOTALL)[1]
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out
    promised = re.search(r"^# -> (.*)$", code, re.MULTILINE)[1]
    assert printed.splitlines()[0] == promised
    assert printed.endswith('op rational (i:1/3, j:2/5) -> (h:2/7);\n}\n')
