"""The README's examples stay runnable: its config passes validation, every
``diffbank`` line of the CLI walkthrough parses, and its data steps run."""

import json
import re
import shlex
from pathlib import Path

from diffbank.cli import build_parser, main
from diffbank.config import validate_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _code_blocks(text: str, lang: str = "") -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```", text, flags=re.S | re.M)


def test_readme_config_validates():
    (block,) = _code_blocks(README, "json")
    cfg = validate_config(json.loads(block))
    assert cfg["hrp"]["stages"] == 2


def _walkthrough_commands() -> list:
    walkthrough = README.split("## CLI walkthrough", 1)[1].split("\n## ", 1)[0]
    block = _code_blocks(walkthrough)[0].replace("\\\n", " ")
    return [shlex.split(line) for line in block.splitlines()
            if line.startswith("diffbank ")]


def test_cli_walkthrough_lines_parse():
    commands = _walkthrough_commands()
    parser = build_parser()
    seen = {parser.parse_args(argv[1:]).command for argv in commands}
    assert seen == {"generate", "calibrate", "preprocess", "train", "evaluate",
                    "diagnose", "experiment"}


def test_cli_walkthrough_data_steps_run(tmp_path):
    # the steps that need no config file: generate, calibrate, preprocess and
    # diagnose, with their data/ and diag/ paths moved under tmp_path
    data_steps = ("generate", "calibrate", "preprocess", "diagnose")
    commands = [argv[1:] for argv in _walkthrough_commands() if argv[1] in data_steps]
    assert [argv[0] for argv in commands] == list(data_steps)
    for argv in commands:
        argv = [str(tmp_path / a) if a.startswith(("data/", "diag/")) else a for a in argv]
        assert main(argv) == 0, argv
