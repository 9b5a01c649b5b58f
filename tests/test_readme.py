"""The README's "Library" section names only what the library holds, and its
"Command line" examples run as written."""
import importlib
import re
import shlex
from pathlib import Path

from ngcodes.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def library_name_lists():
    """{module: first sentence} of each ``ngcodes.<module>`` bullet of the
    Library section; that sentence is the module's list of names."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- `(ngcodes\.\w+)` - (.*(?:\n  .*)*)", section, re.M)
    return {module: re.split(r"(?<=\.)\s+(?=[A-Z`])", " ".join(body.split()), maxsplit=1)[0]
            for module, body in bullets}


def test_every_name_the_readme_lists_imports_from_its_module():
    lists = library_name_lists()
    assert set(lists) == {"ngcodes.codes", "ngcodes.latency", "ngcodes.simulator", "ngcodes.descent"}
    for module, sentence in lists.items():
        names = [token for token in re.findall(r"`([^`]+)`", sentence) if token.isidentifier()]
        assert names, (module, sentence)
        missing = [name for name in names if not hasattr(importlib.import_module(module), name)]
        assert not missing, f"README lists {missing} under {module}"


def command_lines():
    """The ``ngcodes`` commands of the "Command line" section's bash block, in
    order, continuation lines joined, and the file names the block mentions."""
    section = README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("ngcodes ")]
    return commands, set(re.findall(r"[\w.-]+\.(?:csv|json)\b", block))


def test_each_command_line_example_exits_0_and_writes_its_files(tmp_path, monkeypatch):
    commands, files = command_lines()
    assert [argv[1] for argv in commands] == ["construct", "verify", "analyze", "simulate", "gd-demo"]
    assert files == {"code.json", "analytic.csv", "empirical.csv", "empirical_loads.csv", "gd.csv"}
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    assert {p.name for p in tmp_path.iterdir()} == files
    # the gd-demo example, run again, writes the same bytes
    first = (tmp_path / "gd.csv").read_bytes()
    assert main(commands[-1][1:]) == 0
    assert (tmp_path / "gd.csv").read_bytes() == first
