"""The shared artifact text codec, through every tabular importer."""

import pytest

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
