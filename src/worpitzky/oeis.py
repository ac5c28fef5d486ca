"""OEIS b-file ingestion and cross-checks of the Eulerian triangles.

Bundled fixtures (regenerated from the enumeration oracle) are the
authoritative data source; a b-file saved on disk can be checked in their
place.  A b-file is plain text with ``index value`` lines and ``#``
comments; triangle rows are reconstructed by reading the value stream in
row-major order.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib.resources import files
from typing import Callable

from .eulerian import eulerian_row_b_q, eulerian_row_d_q


@dataclass(frozen=True)
class SequenceSpec:
    seq_id: str
    fixture: str
    # number of leading values in the fixture stream before the first
    # checkable row (e.g. a degenerate rank-0 row)
    fixture_offset: int
    min_n: int
    computed_row: Callable[[int], tuple[int, ...]]


SEQUENCES = {
    "A060187": SequenceSpec(
        "A060187",
        "A060187.txt",
        fixture_offset=1,
        min_n=1,
        computed_row=lambda n: eulerian_row_b_q(n).at_q1(),
    ),
    "A262226": SequenceSpec(
        "A262226",
        "A262226.txt",
        fixture_offset=0,
        min_n=2,
        computed_row=lambda n: eulerian_row_d_q(n).at_q1(),
    ),
}


def parse_bfile(text: str) -> list[int]:
    """Values of a b-file in index order; ``#`` comments and blanks ignored."""
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed b-file line {lineno}: {line!r}")
        try:
            index, value = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"malformed b-file line {lineno}: {line!r}") from None
        entries.append((index, value))
    entries.sort(key=lambda iv: iv[0])
    return [value for _, value in entries]


def rows_from_values(
    spec: SequenceSpec, values: list[int], max_n: int, offset: int
) -> dict[int, tuple[int, ...]]:
    rows = {}
    pos = offset
    for n in range(spec.min_n, max_n + 1):
        width = n + 1
        if pos + width > len(values):
            raise ValueError(
                f"{spec.seq_id} data has only {len(values)} values, "
                f"not enough for rows up to n={max_n}"
            )
        rows[n] = tuple(values[pos : pos + width])
        pos += width
    return rows


def load_fixture(seq_id: str) -> str:
    spec = SEQUENCES[seq_id]
    return files("worpitzky").joinpath("data", spec.fixture).read_text()


@dataclass(frozen=True)
class OeisReport:
    seq_id: str
    source: str  # "fixture" | "file"
    warning: str | None
    rows: tuple[tuple[int, tuple[int, ...], tuple[int, ...], bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, _, _, ok in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "seq": self.seq_id,
            "source": self.source,
            "warning": self.warning,
            "rows": [
                {"n": n, "reference": list(ref), "computed": list(got), "pass": ok}
                for n, ref, got, ok in self.rows
            ],
            "pass": self.passed,
        }


def _align_offset(spec: SequenceSpec, values: list[int], max_n: int) -> int | None:
    """Find the head offset at which the first checkable row appears.

    External b-files may carry extra degenerate rows before the first row
    this engine can compute; try small offsets and anchor on the first two
    rows checked (one short row like (1, 1) can also match across a row
    boundary).
    """
    rows = range(spec.min_n, min(max_n, spec.min_n + 1) + 1)
    anchor = sum(map(spec.computed_row, rows), ())
    width = len(anchor)
    for offset in range(0, 9):
        if tuple(values[offset : offset + width]) == anchor:
            return offset
    return None


def check_sequence(
    seq_id: str,
    max_n: int,
    bfile_path: str | None = None,
) -> OeisReport:
    """Compare computed triangle rows against b-file data up to max_n."""
    if seq_id not in SEQUENCES:
        raise ValueError(f"unknown sequence {seq_id!r}")
    spec = SEQUENCES[seq_id]
    if max_n < spec.min_n:
        raise ValueError(f"max_n must be >= {spec.min_n} for {seq_id}")

    warning = None
    if bfile_path is None:
        source = "fixture"
        values = parse_bfile(load_fixture(seq_id))
        offset = spec.fixture_offset
    else:
        try:
            with open(bfile_path, encoding="utf-8") as fh:
                values = parse_bfile(fh.read())
        except OSError as exc:
            raise ValueError(f"cannot read b-file: {exc}") from None
        source = "file"
        offset = _align_offset(spec, values, max_n)
        if offset is None:
            offset = spec.fixture_offset
            warning = "could not align data head, using fixture layout"

    reference = rows_from_values(spec, values, max_n, offset)
    rows = []
    for n in range(spec.min_n, max_n + 1):
        got = spec.computed_row(n)
        ref = reference[n]
        rows.append((n, ref, got, ref == got))
    return OeisReport(seq_id, source, warning, tuple(rows))
