"""The README's library sketch runs as written: the float copy of its
exact instance carries the exact zeta . v, so the witness it realizes
passes every check, the trace identity exactly."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_sketch() -> str:
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"^## Library sketch\n\n```python\n(.*?)^```", text, re.M | re.S)
    return block


def test_the_library_sketch_verifies_its_witness():
    scope = {}
    exec(compile(_library_sketch(), str(README), "exec"), scope)
    verdict, point, report = scope["verdict"], scope["point"], scope["report"]
    assert verdict.nonempty and verdict.verdict.dim == 0
    assert point.success and point.stop == "converged-stable"
    assert report["all_ok"]
    (trace,) = [c for c in report["checks"] if c["name"] == "trace_identity"]
    assert trace == {"name": "trace_identity", "ok": True, "detail": "exact zeta . v = 0"}
