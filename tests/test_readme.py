"""The README's library quick tour runs against the current API."""

from pathlib import Path


def test_readme_quick_tour_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(tour, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "True 0.5445 True"
