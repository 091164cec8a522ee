"""The README's Python examples run as written, and its flag table is current."""

import re
from pathlib import Path

from cluster_simplicity import audit_all

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_flag_table_matches_audit():
    block = re.search(r"Short-variant rows.*?^```\n(.*?)^```", README.read_text(), flags=re.M | re.S).group(1)
    readme = {}
    for line in block.splitlines():
        cells = re.split(r" {2,}", line.strip())  # index, flags, index, flags
        readme.update(zip(cells[::2], cells[1::2]))
    assert readme == {flags.index_id: flags.flags_string() for flags in audit_all()}
