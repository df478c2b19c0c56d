"""Streaming generation is bit-identical to in-memory generation.

The generators in :mod:`repro.workload.reference` are each split into a
per-reference iterator and a whole-trace constructor; the streaming
writer (:func:`repro.trace.stream_trace`) consumes the same iterators in
bounded chunks.  These tests pin the bit-identity across every workload
family, chunk size, and optional column — and the ``trace-gen`` CLI that
fronts the streaming path.
"""

from __future__ import annotations

import pytest

from repro.trace import generate_trace, read_trace, stream_trace
from repro.trace.cli import main as trace_gen_main
from repro.workload import (
    cyclic_trace,
    phased_trace,
    random_trace,
    sequential_trace,
    zipf_trace,
)

KINDS = {
    "sequential": (sequential_trace, dict(pages=37, sweeps=5)),
    "cyclic": (cyclic_trace, dict(pages=13, length=900)),
    "random": (random_trace, dict(pages=50, length=1200, seed=6)),
    "zipf": (zipf_trace, dict(pages=45, length=1100, skew=1.3, seed=8)),
    "phased": (
        phased_trace,
        dict(pages=64, length=1500, working_set=7, phase_length=90,
             locality=0.93, seed=4),
    ),
}

BAD_PARAMS = {
    "sequential": dict(pages=0),
    "cyclic": dict(pages=0, length=10),
    "random": dict(pages=0, length=10),
    "zipf": dict(pages=10, length=10, skew=-1),
    "phased": dict(pages=0, length=10),
}


class TestStreamingBitIdentity:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_stream_matches_reference_generator(self, tmp_path, kind):
        reference_fn, params = KINDS[kind]
        expected = reference_fn(**params)
        path = stream_trace(tmp_path / f"{kind}.rtrc", kind, **params)
        trace = read_trace(path)
        try:
            assert trace == expected.as_list()
        finally:
            trace.close()

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("chunk_refs", [1, 7, 256, 10_000])
    def test_chunk_size_is_invisible(self, tmp_path, kind, chunk_refs):
        _, params = KINDS[kind]
        path = stream_trace(
            tmp_path / f"{kind}-{chunk_refs}.rtrc", kind,
            chunk_refs=chunk_refs, **params,
        )
        trace = read_trace(path)
        try:
            assert trace == generate_trace(kind, **params)
        finally:
            trace.close()

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_optional_columns_stream_identically(self, tmp_path, kind):
        _, params = KINDS[kind]
        path = stream_trace(
            tmp_path / f"{kind}-cols.rtrc", kind,
            chunk_refs=333, write_fraction=0.25, segment_pages=8, **params,
        )
        expected = generate_trace(
            kind, write_fraction=0.25, segment_pages=8, **params
        )
        trace = read_trace(path)
        try:
            assert trace == expected
            assert trace.write_flags() == expected.write_flags()
            assert trace.spans() == expected.spans()
        finally:
            trace.close()

    def test_write_column_does_not_perturb_pages(self, tmp_path):
        _, params = KINDS["phased"]
        plain = stream_trace(tmp_path / "plain.rtrc", "phased", **params)
        flagged = stream_trace(
            tmp_path / "flagged.rtrc", "phased",
            write_fraction=0.5, **params,
        )
        a, b = read_trace(plain), read_trace(flagged)
        try:
            assert list(a.pages) == list(b.pages)
        finally:
            a.close()
            b.close()

    def test_segment_split_is_reversible(self, tmp_path):
        _, params = KINDS["zipf"]
        path = stream_trace(
            tmp_path / "seg.rtrc", "zipf", segment_pages=8, **params
        )
        flat = zipf_trace(**params)
        trace = read_trace(path)
        try:
            rebuilt = [s * 8 + p for s, p in trace]
            assert rebuilt == flat.as_list()
        finally:
            trace.close()

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown trace kind"):
            stream_trace(tmp_path / "x.rtrc", "fractal", pages=4, length=4)
        with pytest.raises(ValueError, match="unknown trace kind"):
            generate_trace("fractal", pages=4, length=4)

    def test_bad_generator_params_leave_no_file(self, tmp_path):
        path = tmp_path / "bad.rtrc"
        with pytest.raises(ValueError):
            stream_trace(path, "phased", pages=10, length=100,
                         working_set=99)
        assert not path.exists()
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("kind", sorted(BAD_PARAMS))
    def test_bad_generator_params_keep_an_existing_file(self, tmp_path, kind):
        """Every generator checks its arguments when it is called, so a
        bad call fails before the writer truncates the output path."""
        path = tmp_path / "keep.rtrc"
        path.write_bytes(b"an earlier trace")
        with pytest.raises(ValueError):
            stream_trace(path, kind, **BAD_PARAMS[kind])
        assert path.read_bytes() == b"an earlier trace"


class TestTraceGenCli:
    def test_generates_readable_file(self, tmp_path, capsys):
        out = tmp_path / "cli.rtrc"
        code = trace_gen_main([
            "phased", "--output", str(out), "--pages", "32",
            "--length", "2000", "--seed", "5", "--working-set", "6",
            "--phase-length", "80", "--locality", "0.9",
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "2,000 references" in printed
        expected = phased_trace(32, 2000, working_set=6, phase_length=80,
                                locality=0.9, seed=5)
        trace = read_trace(out)
        try:
            assert trace == expected.as_list()
        finally:
            trace.close()

    def test_optional_columns_via_cli(self, tmp_path, capsys):
        out = tmp_path / "cols.rtrc"
        code = trace_gen_main([
            "zipf", "--output", str(out), "--pages", "24",
            "--length", "1000", "--write-fraction", "0.2",
            "--segment-pages", "6",
        ])
        assert code == 0
        trace = read_trace(out)
        try:
            assert trace.has_writes and trace.has_segments
        finally:
            trace.close()

    def test_bad_params_exit_2(self, tmp_path, capsys):
        code = trace_gen_main([
            "phased", "--output", str(tmp_path / "x.rtrc"),
            "--pages", "4", "--length", "100", "--working-set", "9",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_params_keep_an_existing_output(self, tmp_path, capsys):
        out = tmp_path / "keep.rtrc"
        out.write_bytes(b"an earlier trace")
        code = trace_gen_main([
            "phased", "--output", str(out), "--pages", "0",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert out.read_bytes() == b"an earlier trace"
