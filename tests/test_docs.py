"""README's library example runs as written and its command lines parse,
so the public API and the flags it documents cannot drift from the
package."""

import pathlib
import re
import shlex

from geostab import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_section(title):
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_library_block_runs():
    [block] = re.findall(r"```python\n(.*?)```", readme_section("Library"),
                         re.S)
    exec(compile(block, str(README), "exec"), {})


def test_readme_command_lines_parse():
    """Every geostab line of the Command line block parses with the CLI's
    own parser into a run configuration."""
    [block] = re.findall(r"```sh\n(.*?)```", readme_section("Command line"),
                         re.S)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()
             if line.startswith("geostab ")]
    assert len(lines) == 6
    for argv in lines:
        cli.RunConfig(**vars(cli.build_parser().parse_args(argv[1:])))
