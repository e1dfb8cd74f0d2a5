"""Storage substrate: typed column tables, CSV I/O and a database
catalog (the ODBC/DBMS substitution).  Slice a table through its
relation view: ``table.to_relation().select(...).project([...])``."""

from repro.storage.csv_io import (
    read_csv,
    relation_from_csv,
    relation_to_csv,
    write_csv,
)
from repro.storage.database import Database
from repro.storage.table import Column, Table, coerce_value, infer_type

__all__ = [
    "Column",
    "Table",
    "Database",
    "read_csv",
    "write_csv",
    "relation_from_csv",
    "relation_to_csv",
    "infer_type",
    "coerce_value",
]
