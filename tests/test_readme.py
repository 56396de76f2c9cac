"""README.md's Python examples run as written, so an API change cannot leave
them stale."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.S | re.M)
QUICK_START = next(block for block in BLOCKS if "dml_estimate" in block)


def run(block: str) -> tuple[dict, str]:
    """Execute a block in a fresh namespace; returns it and the printed text."""
    namespace: dict = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(block, "README.md", "exec"), namespace)
    return namespace, out.getvalue()


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block-{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(block):
    run(block)


def test_quick_start_estimate_is_near_the_printed_truth():
    truth = float(re.search(r"# exact truth: ([-+\d.eE]+)", QUICK_START).group(1))
    namespace, printed = run(QUICK_START)
    assert float(printed.splitlines()[-1]) == pytest.approx(truth, abs=1e-12)
    report = namespace["report"]
    assert report.ci_lower <= truth <= report.ci_upper
    assert abs(report.theta_hat - truth) < 0.1
