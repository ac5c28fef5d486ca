"""b-file parsing and the OEIS triangle cross-checks."""

from importlib.resources import files

import pytest

from worpitzky.oeis import (
    SEQUENCES,
    check_sequence,
    load_fixture,
    parse_bfile,
    rows_from_values,
)


def test_parse_bfile_skips_comments_and_blanks():
    text = "# header\n\n1 1\n2 6\n# trailing comment\n3 1\n"
    assert parse_bfile(text) == [1, 6, 1]


def test_parse_bfile_sorts_by_index():
    assert parse_bfile("2 20\n1 10\n3 30") == [10, 20, 30]


def test_parse_bfile_rejects_malformed_lines():
    with pytest.raises(ValueError, match="line 1"):
        parse_bfile("1 2 3")
    with pytest.raises(ValueError, match="line 2"):
        parse_bfile("1 1\nx y")


def test_fixture_checks_pass():
    assert check_sequence("A060187", 5).passed
    assert check_sequence("A262226", 5).passed
    assert check_sequence("A060187", 6).passed
    assert check_sequence("A262226", 6).passed


def test_report_json():
    d = check_sequence("A262226", 3).to_json_dict()
    assert d["seq"] == "A262226"
    assert d["source"] == "fixture"
    assert d["pass"] is True
    assert d["rows"][0] == {
        "n": 2,
        "reference": [1, 2, 1],
        "computed": [1, 2, 1],
        "pass": True,
    }


def test_mismatching_bfile_fails(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1\n2 2\n3 1\n4 1\n5 99\n6 11\n7 1\n")
    report = check_sequence("A262226", 3, bfile_path=str(bad))
    assert not report.passed
    assert report.rows[0][3] is True  # n=2 row still matches
    assert report.rows[1][3] is False


def test_foreign_head_is_aligned(tmp_path):
    # simulate an external layout carrying extra degenerate rows up front
    rows = [7, 8, 9] + [1, 2, 1] + [1, 11, 11, 1]
    text = "\n".join(f"{i} {v}" for i, v in enumerate(rows, start=1))
    f = tmp_path / "padded.txt"
    f.write_text(text)
    report = check_sequence("A262226", 3, bfile_path=str(f))
    assert report.passed


@pytest.mark.parametrize("seq_id", sorted(SEQUENCES))
def test_bundled_fixture_passes_as_its_own_bfile(seq_id):
    # A060187's rank-0 row (1) and the n=1 row (1, 1) put "1, 1" at two
    # offsets, so one anchor row is not enough to align the head
    path = files("worpitzky").joinpath("data", SEQUENCES[seq_id].fixture)
    report = check_sequence(seq_id, 4, bfile_path=str(path))
    assert report.passed
    assert report.warning is None


def test_a_bfile_with_only_the_first_row_aligns(tmp_path):
    f = tmp_path / "one_row.txt"
    f.write_text("1 1\n2 2\n3 1\n")
    report = check_sequence("A262226", 2, bfile_path=str(f))
    assert report.passed
    assert report.warning is None


def test_insufficient_values_rejected():
    spec = SEQUENCES["A262226"]
    with pytest.raises(ValueError, match="not enough"):
        rows_from_values(spec, [1, 2, 1], max_n=3, offset=0)


def test_max_n_below_first_row_rejected():
    with pytest.raises(ValueError):
        check_sequence("A262226", 1)
    with pytest.raises(ValueError):
        check_sequence("A060187", 0)


def test_unknown_sequence_rejected():
    with pytest.raises(ValueError):
        check_sequence("A000001", 3)


def test_fixture_streams_parse():
    for seq_id in SEQUENCES:
        values = parse_bfile(load_fixture(seq_id))
        assert values, seq_id
