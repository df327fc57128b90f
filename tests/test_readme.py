"""The README's code runs, its Layout names every module, its table of
scalar config keys is the config's and its flags are the parser's."""

import json
import re
from pathlib import Path

from wavecompact.config import _SCALARS, config_from_dict

ROOT = Path(__file__).resolve().parent.parent


def _blocks(text, language):
    return re.findall(rf"^```{language}\n(.*?)^```$", text, re.M | re.S)


def test_readme_code_runs_and_its_layout_names_every_module(capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (quick_start,) = _blocks(text, "python")
    exec(compile(quick_start, "README quick start", "exec"), {})
    assert float(capsys.readouterr().out) < 1e-3

    (config,) = _blocks(text, "json")
    raw = json.loads(config)
    assert config_from_dict(raw).kind == raw["kind"]

    layout = _blocks(text.split("## Layout", 1)[1], "")[0]
    named = set(re.findall(r"^  (\w+)\.py ", layout, re.M))
    modules = {p.stem for p in (ROOT / "src" / "wavecompact").glob("*.py")} - {"__init__"}
    assert named == modules


def test_readme_table_of_scalar_keys_is_the_configs():
    # one row per scalar key: its default and the kinds that read it
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` \| `([^`]*)` \| [^|]* \| ([^|]*) \|$", text, re.M)
    table = {key: (json.loads(default), tuple(re.findall(r"`(\w+)`", readers)))
             for key, default, readers in rows}
    assert table == {key: (default, readers) for key, (default, _, readers) in _SCALARS.items()}


def test_readme_and_cli_docstring_name_the_flags_of_help():
    # the flags sentence of the README's "Command line" and the cli module's
    # usage line name exactly the options that --help shows
    from wavecompact import cli
    shown = set(re.findall(r"--[\w-]+", cli._parser().format_help())) - {"--help"}
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (sentence,) = re.findall(r"^Subcommands: .*?; flags (.*?)\.  ",
                             text.split("## Command line", 1)[1], re.M | re.S)
    (usage,) = re.findall(r"^    wavecompact <.*?\n\n", cli.__doc__, re.M | re.S)
    assert shown == {"--config", "--out"}
    assert set(re.findall(r"--[\w-]+", sentence)) == shown
    assert set(re.findall(r"--[\w-]+", usage)) == shown
