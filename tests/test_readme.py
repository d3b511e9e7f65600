"""The README's "Library use" example runs as written, its config block
is the config schema, and the package exports exactly the names the
README documents."""
import re
from pathlib import Path

import yaml

import stresswave
from stresswave.config import _KEYS, config_to_mapping, parse_config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_use_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    iters, c_max = capsys.readouterr().out.split()
    # Newton takes at least one iteration a step; c = 1/sqrt(rho eps')
    # is at least the linear-law speed 1 because eps' <= 1
    assert int(iters) >= 1
    assert float(c_max) >= 1.0


def test_readme_config_block_is_the_schema():
    section = README.read_text().split("## Command line", 1)[1]
    block = yaml.safe_load(re.search(r"```yaml\n(.*?)```", section, re.S).group(1))
    mapping = config_to_mapping(parse_config(block))
    assert mapping == block
    # every section and key, in the order a manifest writes them
    schema = [(name, list(keys)) for name, keys in _KEYS.items()]
    assert [(name, list(keys)) for name, keys in block.items()] == schema
    assert [(name, list(keys)) for name, keys in mapping.items()] == schema


def test_every_exported_name_is_in_the_readme():
    text = README.read_text()
    assert [n for n in stresswave.__all__ if f"`{n}`" not in text] == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from stresswave import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(stresswave.__all__)
