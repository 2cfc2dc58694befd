"""README's library example runs and prints what its comments say."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_prints_its_comments(capsys):
    section = README.read_text(encoding="utf-8").split("## Library in one example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    comments = [
        line.split("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")
    ]
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(comments) == 2
    for line, comment in zip(printed, comments):
        assert comment.startswith(line)
