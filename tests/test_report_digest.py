import importlib.util
import math
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


def load_diff_tool():
    path = TOOL.parent / "digest_diff.py"
    spec = importlib.util.spec_from_file_location("digest_diff", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_digest_diff_counts_moved_fields_in_ulps_and_lists_changed_errors(tmp_path, capsys):
    tool, diff = load_tool(), load_diff_tool()
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    assert tool.main([str(old), "--draws", "60", "--seed", "3"]) == 0
    lines = old.read_text(encoding="utf-8").splitlines(keepends=True)
    assert diff.main([str(old), str(old)]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == ["changed errors: 0", "0 of 60 lines moved"]
    # move one float field by 3 ULPs, turn one report into an error and add a warning to it
    first = next(i for i, line in enumerate(lines) if "n_star_exact=0x1." in line)
    value = float.fromhex(lines[first].split("n_star_exact=")[1].split()[0])
    moved = value
    for _ in range(3):
        moved = math.nextafter(moved, math.inf)
    lines[first] = lines[first].replace(f"n_star_exact={value.hex()}", f"n_star_exact={moved.hex()}")
    second = next(i for i, line in enumerate(lines) if i != first and "Error:" not in line)
    head = lines[second].split(" -> ")[0]
    lines[second] = f"{head} -> ValueError: made up warnings=1\n"
    new.write_text("".join(lines), encoding="utf-8")
    assert diff.main([str(old), str(new)]) == 0
    out = capsys.readouterr().out.splitlines()
    kind = lines[first].split()[1]
    assert [kind, "n_star_exact", "1", "3"] in [row.split() for row in out]
    assert [head.split()[1], "warnings", "1", "-"] in [row.split() for row in out]
    assert "changed errors: 1" in out
    assert any(row.startswith(f"  {second} ") and "ValueError: made up" in row for row in out)
    assert out[-1] == "2 of 60 lines moved"
    # digests of different draws are refused
    other = tmp_path / "other.txt"
    assert tool.main([str(other), "--draws", "60", "--seed", "4"]) == 0
    assert diff.main([str(old), str(other)]) == 2
    assert diff.ulp_distance((1.0).hex(), math.nextafter(1.0, 0.0).hex()) == 1.0
    assert diff.ulp_distance((0.0).hex(), (-0.0).hex()) == 0.0
