import importlib.util
from pathlib import Path

from omnidris.optimize import OptimumReport, Pow2Selection

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_digest.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("report_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_digest_writes_every_field_of_every_draw(tmp_path):
    tool = load_tool()
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    assert tool.main([str(first), "--draws", "200", "--seed", "7"]) == 0
    assert tool.main([str(second), "--draws", "200", "--seed", "7"]) == 0
    lines = first.read_text(encoding="utf-8").splitlines()
    assert second.read_text(encoding="utf-8").splitlines() == lines
    assert len(lines) == 200
    assert {line.split()[1] for line in lines} == set(tool.KINDS)
    for index, line in enumerate(lines):
        head, body = line.split(" -> ")
        assert head.split()[0] == str(index)
        assert body.split()[-1].startswith("warnings=")
        names = [token.split("=")[0] for token in body.split()[:-1]]
        if "Error:" not in body:
            fields = Pow2Selection._fields if head.split()[1] == "select" else OptimumReport._fields
            assert names == list(fields)
    # floats are written bit for bit
    assert any("n_star_exact=0x1." in line for line in lines)
