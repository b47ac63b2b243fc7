"""The public surface: README's Library section lists exactly hardycone.__all__,
and its Library example prints what its comments claim."""

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


def test_readme_library_example_prints_what_it_claims(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    claims = [line.split("#", 1)[1].strip() for line in code.splitlines() if line.startswith("print(")]
    exec(code, {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(claims) == 2
    for out, claim in zip(printed, claims):
        values, prefixes = out.split(), [c.removesuffix("...") for c in claim.split(", ")]
        assert len(values) == len(prefixes)
        assert all(value.startswith(prefix) for value, prefix in zip(values, prefixes)), (out, claim)
