"""The README's examples stay runnable: its config passes validation and
every ``diffbank`` line of the CLI walkthrough parses."""

import json
import re
import shlex
from pathlib import Path

from diffbank.cli import build_parser
from diffbank.config import validate_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _code_blocks(text: str, lang: str = "") -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```", text, flags=re.S | re.M)


def test_readme_config_validates():
    (block,) = _code_blocks(README, "json")
    cfg = validate_config(json.loads(block))
    assert cfg["hrp"]["stages"] == 2


def test_cli_walkthrough_lines_parse():
    walkthrough = README.split("## CLI walkthrough", 1)[1].split("\n## ", 1)[0]
    block = _code_blocks(walkthrough)[0].replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines()
                if line.startswith("diffbank ")]
    parser = build_parser()
    seen = {parser.parse_args(argv[1:]).command for argv in commands}
    assert seen == {"generate", "calibrate", "preprocess", "train", "evaluate",
                    "diagnose", "experiment"}
