"""The README's "Library" section names only what the library holds."""
import importlib
import re
from pathlib import Path

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
