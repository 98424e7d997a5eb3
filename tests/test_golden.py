"""tests/golden.py's check groups the files that differ: a change of the
artifact stamp alone, and a change of content."""
import golden

_CSV = "# artifact=rmlab/{}\n# config experiment=E2b_peaked\ntrial,n,ax_norm\n0,16,{}\n1,16,3.0\n"
_JSON = '{{\n  "artifact": {{\n    "name": "rmlab",\n    "version": "{}"\n  }},\n  "summary": {{}}\n}}\n'


def _saved_copy(root, version, value):
    root.mkdir()
    (root / "a.csv").write_text(_CSV.format(version, value), encoding="utf-8")
    (root / "a.json").write_text(_JSON.format(version), encoding="utf-8")
    return root


def test_check_tells_a_stamp_change_from_a_content_change(tmp_path, capsys):
    texts = [("a.csv", _CSV.format("0.2.2", "4.0")), ("a.json", _JSON.format("0.2.2"))]

    same = _saved_copy(tmp_path / "same", "0.2.2", "4.0")
    assert golden._check(same, texts) == ([], [])
    assert "all golden files identical" in capsys.readouterr().out

    stamp = _saved_copy(tmp_path / "stamp", "0.2.1", "4.0")
    assert golden._check(stamp, texts) == (["a.csv", "a.json"], [])
    out = capsys.readouterr().out
    assert "in the artifact stamp only: a.csv, a.json" in out
    assert "in content: none" in out

    row = _saved_copy(tmp_path / "row", "0.2.1", "4.000000000000001")
    assert golden._check(row, texts) == (["a.json"], ["a.csv"])
    out = capsys.readouterr().out
    assert "in content: a.csv" in out
    assert "saved: 0,16,4.000000000000001" in out

    (row / "a.json").unlink()
    assert golden._check(row, texts) == ([], ["a.csv", "a.json"])
