"""Hypothesis runs with a fixed seed and a bounded example count, so a
test run is reproducible and its length does not depend on the host.
``HYPOTHESIS_PROFILE=dwkit-deep`` runs ten times the examples, still
derandomized."""
import os

import pytest
from hypothesis import settings

import dwkit.chunkstore as cs

settings.register_profile("dwkit", derandomize=True, max_examples=200,
                          deadline=None, database=None)
settings.register_profile("dwkit-deep", settings.get_profile("dwkit"),
                          max_examples=2000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dwkit"))


@pytest.fixture
def count_tokenized(monkeypatch):
    """A function that, once called, records each record the chunk engine
    tokenizes from then on, as its fields joined by commas, in the list it
    returns: the rows ``csv.reader`` yields, the lines of each batch split
    into columns and the lines of each batch ``np.loadtxt`` parses."""
    def start():
        records = []
        reader, split = cs.csv.reader, cs._split_columns
        parse_lines = cs._parse_lines

        def counting_reader(*args, **kwargs):
            for row in reader(*args, **kwargs):
                records.append(",".join(row))
                yield row

        def counting_split(lines, *args):
            records.extend(line.rstrip("\r\n") for line in lines)
            return split(lines, *args)

        def counting_parse(lines, *args):
            got = parse_lines(lines, *args)
            if got is not None:   # else the lines are split
                records.extend(line.rstrip("\r\n") for line in lines)
            return got
        monkeypatch.setattr(cs.csv, "reader", counting_reader)
        monkeypatch.setattr(cs, "_split_columns", counting_split)
        monkeypatch.setattr(cs, "_parse_lines", counting_parse)
        return records
    return start


@pytest.fixture
def unquoted_verdicts(monkeypatch):
    """The list of what each ``cs._unquoted`` call returns from now on:
    the first is the verdict on the first batch ``open_datastore`` reads,
    True when it takes the unquoted path."""
    verdicts = []
    unquoted = cs._unquoted

    def spy(*args):
        verdicts.append(unquoted(*args))
        return verdicts[-1]
    monkeypatch.setattr(cs, "_unquoted", spy)
    return verdicts
