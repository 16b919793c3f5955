"""Tolerance profiles."""
import dataclasses
import pathlib
import re

import mcfhom
from mcfhom.config import Tolerances


def test_every_tolerance_is_read():
    # a field nothing reads is a knob that changes nothing but the report
    src = pathlib.Path(mcfhom.__file__).parent
    text = "\n".join(p.read_text() for p in src.glob("*.py"))
    unread = [f.name for f in dataclasses.fields(Tolerances)
              if not re.search(rf"(tols|DEFAULT)\.{f.name}\b", text)]
    assert unread == []
