"""The public surface: README's Library section lists exactly hardycone.__all__."""

import importlib
import re
from pathlib import Path

import hardycone

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_section_is_the_public_surface():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^\* `hardycone\.(\w+)`:(.*?)(?=^\* |\Z)", section, re.M | re.S)
    listed = [(module, name) for module, names in bullets for name in re.findall(r"`(\w+)`", names)]
    assert [name for _, name in listed] == hardycone.__all__
    for module, name in listed:
        assert getattr(hardycone, name) is getattr(importlib.import_module(f"hardycone.{module}"), name)
