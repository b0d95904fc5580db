"""Differential test: the block writers of ``trajectory.csv`` (MAC),
``reference.csv`` and ``throughput.csv`` must write the bytes of the
row-wise ``_cell`` + ``csv.writer`` writers kept below, for any floats and
any row count.

The block size is patched small so that row counts cross several blocks;
the shipped runs at the digest tests' 1,000-frame horizon fill at most two
blocks of ``CSV_BLOCK_ROWS`` rows.
"""

from __future__ import annotations

import io
from typing import Dict, List
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from coexlab import runner
from coexlab.metrics import ThroughputSeries
from coexlab.runner import _cell
from tcp_reference import csv_text


def reference_mac_trajectory_csv(series: ThroughputSeries) -> str:
    node_ids = sorted(series.values)
    header = ["frame"] + [f"node_{nid}" for nid in node_ids]
    rows = []
    for idx, frame in enumerate(series.frames):
        rows.append([frame] + [_cell(series.values[nid][idx])
                               for nid in node_ids])
    return csv_text(header, rows)


def reference_reference_csv(reference: Dict[int, List[float]]) -> str:
    node_ids = sorted(reference)
    header = ["frame"] + [f"node_{nid}" for nid in node_ids]
    total = len(reference[node_ids[0]]) if node_ids else 0
    rows = []
    for f in range(total):
        rows.append([f + 1] + [_cell(reference[nid][f]) for nid in node_ids])
    return csv_text(header, rows)


# floats whose sixth-decimal rounding or repr is easy to get wrong
cells = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-7, -5e-7, 4.9999e-7, 1.5e-6, 2.5e-6,
                     0.1234565, 1.0000005, 1e16, -1e16, 1.5e16, 1e300]),
    st.floats(min_value=-5e-7, max_value=5e-7),
    st.integers(-10**9, 10**9).map(lambda k: (k + 0.5) / 10**6),
    st.floats(min_value=1e16, allow_infinity=False),
)


@st.composite
def columns(draw, block_rows):
    """Node ids and one equally long list of cells per id, the row count
    drawn around multiples of ``block_rows``."""
    n_rows = draw(st.integers(0, 3 * block_rows + 1))
    node_ids = draw(st.sets(st.integers(0, 12), max_size=4))
    # few distinct cells per column, so a block repeats values
    pool = draw(st.lists(cells, min_size=1, max_size=6))
    return {nid: draw(st.lists(st.sampled_from(pool) | cells,
                               min_size=n_rows, max_size=n_rows))
            for nid in node_ids}, n_rows


def written(write, *args, block_rows: int) -> str:
    buf = io.StringIO()
    with mock.patch.object(runner, "CSV_BLOCK_ROWS", block_rows):
        write(buf, *args)
    return buf.getvalue()


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_mac_trajectory_writer_equals_row_writer(data):
    block_rows = data.draw(st.integers(1, 5), label="block_rows")
    values, n_rows = data.draw(columns(block_rows), label="values")
    first = data.draw(st.integers(1, 200), label="first_frame")
    series = ThroughputSeries(frames=list(range(first, first + n_rows)),
                              values=values, window_frames=first)
    assert written(runner._write_node_csv, series.frames, series.values,
                   block_rows=block_rows) == \
        reference_mac_trajectory_csv(series)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_reference_writer_equals_row_writer(data):
    block_rows = data.draw(st.integers(1, 5), label="block_rows")
    reference, _ = data.draw(columns(block_rows), label="reference")
    assert written(runner._write_reference, reference,
                   block_rows=block_rows) == \
        reference_reference_csv(reference)


@given(st.lists(cells, max_size=12), st.sampled_from(["node", "flow"]))
@settings(max_examples=200, deadline=None)
def test_throughput_writer_equals_row_writer(means, id_label):
    # the report holds each mean already rounded by _cell
    metrics = {"mean_throughputs": {str(i): _cell(v)
                                    for i, v in enumerate(means)}}
    assert written(runner._write_throughput, metrics, id_label,
                   block_rows=runner.CSV_BLOCK_ROWS) == \
        csv_text([id_label, "mean_throughput"],
                 metrics["mean_throughputs"].items())


def test_signed_zeros_and_exponents_keep_their_text():
    reference = {0: [0.0, -0.0, 4e-7, -4e-7, 1e16]}
    text = written(runner._write_reference, reference, block_rows=2)
    assert text == reference_reference_csv(reference)
    assert text == "frame,node_0\r\n1,0.0\r\n2,-0.0\r\n3,0.0\r\n4,-0.0\r\n" \
        "5,1e+16\r\n"
