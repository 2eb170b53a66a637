import io
import os
import stat
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from alertfp import textio
from alertfp.evaluate import write_attack_ids
from alertfp.scorer import ScoredAlert, write_ranked
from alertfp.textio import atomic_write, lines_of


def test_failed_write_keeps_the_old_file_and_no_temp(sample_dataset, tmp_path):
    path = tmp_path / "ranked.tsv"
    path.write_text("previous run\n", encoding="utf-8")
    bad_tid = ScoredAlert(tid=99, simple_fpof=0, fpof=0.0, rank=1)
    with pytest.raises(IndexError):
        write_ranked(path, [bad_tid], sample_dataset, "simple")
    assert path.read_text(encoding="utf-8") == "previous run\n"
    assert list(tmp_path.iterdir()) == [path]


def test_stale_temp_name_is_skipped(tmp_path):
    path = tmp_path / "attacks.txt"
    stale = tmp_path / f"attacks.txt.{os.getpid()}.0.tmp"
    stale.write_text("left by a crash\n", encoding="utf-8")
    write_attack_ids(path, [3, 1])
    assert path.read_text(encoding="utf-8") == "3\n1\n"
    assert stale.read_text(encoding="utf-8") == "left by a crash\n"


@pytest.mark.parametrize("as_path", [False, True], ids=["str", "path"])
def test_missing_directory_is_named_as_given(as_path, tmp_path):
    target = tmp_path / "missing" / "c.txt"
    with pytest.raises(FileNotFoundError) as info:
        with atomic_write(target if as_path else str(target)):
            pass
    assert info.value.filename == str(target)
    assert str(info.value).endswith(f": {str(target)!r}")


def test_stream_passes_through_open():
    buffer = io.StringIO()
    with atomic_write(buffer) as out:
        assert out is buffer
    write_attack_ids(buffer, [7])
    assert buffer.getvalue() == "7\n"


def test_pipe_is_written_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write_attack_ids(fifo, [5])
        assert os.read(reader, 64) == b"5\n"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert list(tmp_path.iterdir()) == [fifo]


def test_symlink_is_written_through_and_kept(tmp_path):
    # a shell redirect makes /dev/stdout such a link to a regular file
    real = tmp_path / "ranked.tsv"
    real.write_text("previous run\n", encoding="utf-8")
    link = tmp_path / "out"
    link.symlink_to(real)
    write_attack_ids(link, [4])
    assert link.is_symlink()
    assert real.read_text(encoding="utf-8") == "4\n"
    assert sorted(tmp_path.iterdir()) == [link, real]


@given(text=st.text(st.sampled_from("ab\n\r\x85\u2028"), max_size=40), block_size=st.integers(1, 9))
def test_lines_of_splits_as_one_read_does(text, block_size):
    with mock.patch.object(textio, "BLOCK_SIZE", block_size):
        assert list(lines_of(io.StringIO(text, newline=""))) == text.split("\n")
