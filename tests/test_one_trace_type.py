"""One in-memory reference string: every source returns ``ColumnarTrace``.

The workload generators, ``generate_trace``, ``read_trace`` and the one
either-format opener, ``repro.workload.load_trace``, all hand back
exactly :class:`repro.trace.ColumnarTrace`, so the columnar fast path
(``_columns_of``) needs to know one type, and no second trace type or
second opener is exported beside them.
"""

from array import array

import pytest

import repro.trace
import repro.workload
from repro.fastpath.columnar import _columns_of
from repro.trace import ColumnarTrace, generate_trace, read_trace, write_trace
from repro.workload import (
    cyclic_trace,
    load_trace,
    phased_trace,
    random_trace,
    save_trace,
    sequential_trace,
    zipf_trace,
)

GENERATORS = {
    "sequential": lambda: sequential_trace(12, sweeps=3),
    "cyclic": lambda: cyclic_trace(7, 90),
    "random": lambda: random_trace(20, 90, seed=1),
    "zipf": lambda: zipf_trace(20, 90, seed=2),
    "phased": lambda: phased_trace(20, 90, working_set=4, seed=3),
}


def assert_one_type(trace, expected):
    assert type(trace) is ColumnarTrace
    columns = _columns_of(trace)
    assert columns is not None
    assert list(columns[0]) == expected


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_generators_return_a_columnar_trace(kind):
    trace = GENERATORS[kind]()
    # The generator's own array, wrapped rather than copied into a view.
    assert type(trace.pages) is array and trace.pages.typecode == "q"
    assert trace.segments is None and trace.writes is None
    assert_one_type(trace, trace.as_list())


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_generate_trace_returns_a_columnar_trace(kind):
    params = {
        "sequential": dict(pages=12, sweeps=3),
        "cyclic": dict(pages=7, length=90),
        "random": dict(pages=20, length=90, seed=1),
        "zipf": dict(pages=20, length=90, seed=2),
        "phased": dict(pages=20, length=90, working_set=4, seed=3),
    }[kind]
    trace = generate_trace(kind, **params)
    assert_one_type(trace, GENERATORS[kind]().as_list())


@pytest.mark.parametrize("use_mmap", [True, False])
def test_read_trace_returns_a_columnar_trace(tmp_path, use_mmap):
    trace = phased_trace(20, 90, seed=4)
    path = write_trace(tmp_path / "t.rtrc", trace)
    loaded = read_trace(path, use_mmap=use_mmap)
    try:
        assert_one_type(loaded, trace.as_list())
    finally:
        loaded.close()


def test_load_trace_opens_binary_files(tmp_path):
    trace = phased_trace(20, 90, seed=5)
    path = write_trace(tmp_path / "t.rtrc", trace)
    loaded = load_trace(path)
    try:
        assert_one_type(loaded, trace.as_list())
    finally:
        loaded.close()


def test_load_trace_opens_text_files(tmp_path):
    trace = phased_trace(20, 90, seed=6)
    path = tmp_path / "t.trace"
    save_trace(path, trace, header="a text trace")
    loaded = load_trace(path)
    assert_one_type(loaded, trace.as_list())
    assert loaded == trace


def test_write_trace_attaches_writes_to_a_generated_trace(tmp_path):
    trace = phased_trace(20, 90, seed=7)
    writes = [index % 3 == 0 for index in range(len(trace))]
    path = write_trace(tmp_path / "w.rtrc", trace, writes=writes)
    loaded = read_trace(path)
    try:
        assert loaded == trace
        assert loaded.write_flags() == writes
    finally:
        loaded.close()


def test_columns_of_knows_one_type():
    class Subclass(ColumnarTrace):
        __slots__ = ()

    assert _columns_of([1, 2, 3]) is None
    assert _columns_of(array("q", [1, 2, 3])) is None
    assert _columns_of(Subclass([1, 2, 3])) is None


def test_no_second_trace_type_or_opener_is_exported():
    assert not hasattr(repro.workload, "Trace")
    assert "Trace" not in repro.workload.__all__
    assert not hasattr(repro.workload.reference, "Trace")
    assert not hasattr(repro.trace, "load")
    assert "load" not in repro.trace.__all__
    assert not hasattr(repro.trace.format, "load")
