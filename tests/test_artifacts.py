"""The shared artifact text codec, through every tabular importer."""

import pytest

from axokit.artifacts import write_lines
from axokit.characterize import import_csv
from axokit.conss import import_pool_csv
from axokit.errors import SchemaError
from axokit.matching import import_training_csv


@pytest.mark.parametrize("reader", [import_csv, import_training_csv, import_pool_csv])
def test_malformed_preamble_token_names_file(tmp_path, reader):
    path = tmp_path / "bad.csv"
    path.write_text("# kind=adder:u4 seed=0 stray\nheader\n")
    with pytest.raises(SchemaError, match=r"bad\.csv: malformed preamble token 'stray'"):
        reader(path)


def test_failed_write_leaves_no_partial_file(tmp_path):
    def rows():
        yield "# kind=adder:u4"
        raise RuntimeError("writer died")

    target = tmp_path / "out.csv"
    with pytest.raises(RuntimeError):
        write_lines(target, rows())
    assert list(tmp_path.iterdir()) == []
    # an existing target keeps its old contents
    target.write_text("old\n")
    with pytest.raises(RuntimeError):
        write_lines(target, rows())
    assert target.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [target]
    write_lines(target, ["new"])
    assert target.read_text() == "new\n"
    assert list(tmp_path.iterdir()) == [target]
