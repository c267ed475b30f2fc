"""The package's one file writer, ``fields.write_text``.  Its errors are
checked through the CLI, in ``test_cli.py``."""

import os
import stat

import pytest

from regforge.fields import write_text


def test_short_text_over_a_longer_file_leaves_exactly_the_new_bytes(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"x" * 4096)
    write_text(path, "short\n")
    assert path.read_bytes() == b"short\n"


def test_longer_text_over_a_shorter_file_is_written_whole(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old")
    text = "µ" * 3000 + "\n"
    write_text(path, text)
    assert path.read_bytes() == text.encode("utf-8")


@pytest.mark.parametrize("umask", [None, 0o027])
def test_new_file_gets_the_mode_of_open_w(umask, tmp_path):
    old = os.umask(umask) if umask is not None else None
    try:
        with open(tmp_path / "by_open", "w", encoding="utf-8") as fh:
            fh.write("text")
        write_text(tmp_path / "by_writer", "text")
    finally:
        if old is not None:
            os.umask(old)
    mode = stat.S_IMODE(os.stat(tmp_path / "by_writer").st_mode)
    assert mode == stat.S_IMODE(os.stat(tmp_path / "by_open").st_mode)

