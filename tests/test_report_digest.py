import importlib.util
import math
from pathlib import Path

from omnidris.optimize import OptimumReport

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
            assert names == list(OptimumReport._fields)
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
    assert [kind, "n_star_exact", "1", "0", "0", "1", "0", "0", "3"] in [row.split() for row in out]
    assert [head.split()[1], "warnings", "1", *["-"] * 6] in [row.split() for row in out]
    assert "changed errors: 1" in out
    assert any(row.startswith(f"  {second} ") and "ValueError: made up" in row for row in out)
    assert out[-1] == "2 of 60 lines moved"
    # digests of different draws are refused
    other = tmp_path / "other.txt"
    assert tool.main([str(other), "--draws", "60", "--seed", "4"]) == 0
    assert diff.main([str(old), str(other)]) == 2
    assert diff.ulp_distance((1.0).hex(), math.nextafter(1.0, 0.0).hex()) == 1.0
    assert diff.ulp_distance((0.0).hex(), (-0.0).hex()) == 0.0


def test_the_digest_diff_counts_each_field_s_moves_by_ulps(tmp_path, capsys):
    tool, diff = load_tool(), load_diff_tool()
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    assert tool.main([str(old), "--draws", "60", "--seed", "3"]) == 0
    lines = old.read_text(encoding="utf-8").splitlines(keepends=True)
    # move f_at_exact down by 1, 2, 4, 5, 9 and 2 ULPs on six lines
    steps = (1, 2, 4, 5, 9, 2)
    rows = [i for i, line in enumerate(lines) if "f_at_exact=0x1." in line][:len(steps)]
    assert len(rows) == len(steps)
    for row, step in zip(rows, steps):
        value = float.fromhex(lines[row].split("f_at_exact=")[1].split()[0])
        moved = value
        for _ in range(step):
            moved = math.nextafter(moved, -math.inf)
        lines[row] = lines[row].replace(f"f_at_exact={value.hex()}", f"f_at_exact={moved.hex()}")
    new.write_text("".join(lines), encoding="utf-8")
    assert diff.main([str(old), str(new)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["kind", "field", "moved", "1", "2", "3", "4", ">4", "max_ulp"]
    kinds = {lines[row].split()[1] for row in rows}
    counted = [row.split() for row in out if row.split()[1:2] == ["f_at_exact"]]
    assert {row[0] for row in counted} == kinds
    # per kind the columns add up to the moved count; over all kinds, to the six moves
    assert all(int(row[2]) == sum(map(int, row[3:8])) for row in counted)
    totals = [sum(int(row[column]) for row in counted) for column in range(2, 8)]
    assert totals == [6, 1, 2, 0, 1, 2]
    assert max(int(row[8]) for row in counted) == 9
    # a value that turns NaN is counted beyond 4 ULP; an integer field has no ULP
    old_line = "0 fixed-count -> f_at_exact=0x1.0p+0 pow2_lower=64 warnings=0"
    new_line = old_line.replace("0x1.0p+0", "nan").replace("64", "128")
    rows = [row.split()[1:] for row in diff.compare([old_line], [new_line])[1:3]]
    assert rows == [["f_at_exact", "1", "0", "0", "0", "0", "1", "inf"], ["pow2_lower", "1", *["-"] * 6]]
