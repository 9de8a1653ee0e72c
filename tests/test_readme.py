"""README's configuration table, sweep column list and library example match
the code."""

import re
from pathlib import Path

from dangermac.cli import main
from dangermac.config import MacTimings, ScenarioConfig

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def section(heading: str) -> str:
    """The README text under ``heading``, up to the next heading."""
    _, _, rest = README.partition(heading + "\n")
    assert rest, f"README has no {heading!r} heading"
    return re.split(r"^#", rest, maxsplit=1, flags=re.M)[0]


def test_config_table_lists_every_config_key():
    rows = [line for line in section("### Configuration").splitlines()
            if line.startswith("| `")]
    keys = [key for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert keys == [*MacTimings._fields, *ScenarioConfig._fields]


def test_sweep_columns_line_is_the_sweep_header(capsys):
    paragraph = section("### Sweep CSV columns").strip().split("\n\n")[0]
    columns = [c.strip() for c in paragraph.strip("`").split(",")]
    assert main(["sweep", "--values", "1"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert columns == header.split(",")


def test_library_example_runs(capsys):
    # a library signature change that the README misses fails here
    block = re.search(r"```python\n(.*?)```", section("## Library"), re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()
