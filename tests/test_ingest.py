import collections
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from flaremon.core import BBox, DetClass, Detection, Mask
from flaremon.errors import FlaremonError, ParseError
from flaremon.ingest import (FrameAnnotation, format_annotation,
                             parse_annotation_line, read_annotation_stream,
                             write_annotation_stream)
from tests import ingest_oracle
from tests.annotation_fuzz import (DEFECT_KINDS, annotation_lines,
                                   annotation_object)

ONE_FLAME = ('{"frame_index":0,"detections":[{"class":"flame",'
             '"bbox":[1.0,2.0,5.0,9.0],"confidence":0.9}]}')


def read_all(text):
    return list(read_annotation_stream(io.StringIO(text)))


def test_empty_stream():
    assert read_all("") == []


def test_single_flame_no_masks():
    anns = read_all(ONE_FLAME + "\n")
    assert len(anns) == 1
    ann = anns[0]
    assert ann.frame_index == 0
    assert ann.masks is None
    assert ann.detections[0].cls is DetClass.FLAME
    assert ann.detections[0].bbox == BBox(1, 2, 5, 9)


def test_malformed_mask_runs():
    bad = ('{"frame_index":0,"detections":[{"class":"flame",'
           '"bbox":[0,0,4,4],"confidence":1.0}],'
           '"masks":[{"detection":0,"width":4,"height":4,"runs":[3,2,10]}]}')
    with pytest.raises(ParseError) as err:
        read_all(bad)
    assert err.value.line_number == 1


def test_mask_index_out_of_range():
    bad = ('{"frame_index":0,"detections":[],"masks":'
           '[{"detection":0,"width":2,"height":2,"runs":[4]}]}')
    with pytest.raises(ParseError):
        read_all(bad)


def test_invalid_json_reports_line():
    with pytest.raises(ParseError) as err:
        read_all(ONE_FLAME + "\n{broken\n")
    assert err.value.line_number == 2


def test_out_of_order_frames():
    lines = (ONE_FLAME.replace('"frame_index":0', '"frame_index":5') + "\n"
             + ONE_FLAME + "\n")
    with pytest.raises(ParseError,
                       match="^line 2: frame_index 0 after 5$") as err:
        read_all(lines)
    assert err.value.line_number == 2


def test_repeated_frame_index_rejected():
    """A repeated frame_index is a ParseError naming its line."""
    with pytest.raises(ParseError,
                       match="^line 2: frame_index 0 after 0$") as err:
        read_all(ONE_FLAME + "\n" + ONE_FLAME + "\n")
    assert err.value.line_number == 2


def test_zero_detection_frames_legal():
    anns = read_all('{"frame_index":3,"detections":[]}\n')
    assert anns[0].detections == ()


def test_write_read_roundtrip_byte_identical():
    ann = FrameAnnotation(
        frame_index=2,
        detections=(
            Detection(BBox(0, 0, 4, 4), DetClass.FLAME, 0.75),
            Detection(BBox(1, 1, 3, 6), DetClass.SMOKE, 0.5),
        ),
        masks=((0, Mask(4, 4, (3, 2, 11))),),
    )
    buf = io.StringIO()
    write_annotation_stream([ann], buf)
    canonical = buf.getvalue()
    reread = read_all(canonical)
    buf2 = io.StringIO()
    write_annotation_stream(reread, buf2)
    assert buf2.getvalue() == canonical


def test_reader_output_satisfies_invariants():
    for ann in read_all(ONE_FLAME + "\n"):
        for det in ann.detections:
            assert 0.0 <= det.confidence <= 1.0
            assert det.bbox.x_min < det.bbox.x_max


def test_format_annotation_single_line():
    ann = FrameAnnotation(0, (), None)
    assert "\n" not in format_annotation(ann)


@pytest.mark.parametrize("field, value", [
    ("runs", "[1.9, 3.9]"), ("runs", "[true, 3]"), ("runs", "[1, 3.0]"),
    ("runs", '"13"'), ("width", "2.7"), ("width", "2.0"), ("width", "true"),
    ("height", "2.0"), ("detection", "0.0"), ("detection", "false")])
def test_non_integer_mask_fields_rejected(field, value):
    # Each of these used to load as Mask(2, 2, runs=(1, 3)).
    fields = {"detection": "0", "width": "2", "height": "2", "runs": "[1, 3]"}
    fields[field] = value
    line = ('{"frame_index":0,"detections":[{"class":"flame",'
            '"bbox":[0,0,2,2],"confidence":1.0}],"masks":[{'
            + ",".join(f'"{k}":{v}' for k, v in fields.items()) + "}]}")
    with pytest.raises(ParseError) as err:
        read_all(line)
    assert err.value.line_number == 1


@pytest.mark.parametrize("field, value", [
    ("bbox", '[true, "0", "2.5", 2]'), ("bbox", '[0, 0, 2, "2"]'),
    ("bbox", '"0122"'), ("bbox", "[0, 0, 2, 2, 2]"),
    ("bbox", "[0, 0, 2, 1" + "0" * 400 + "]"), ("confidence", '"0.9"'),
    ("confidence", "true"), ("confidence", "1" + "0" * 400)])
def test_non_numeric_detection_fields_rejected(field, value):
    # The first two used to load as BBox(1.0, 0.0, 2.5, 2.0) and 0.9, a
    # 400-digit integer raised OverflowError.
    fields = {"class": '"flame"', "bbox": "[0, 0, 2, 2]", "confidence": "1"}
    fields[field] = value
    line = ('{"frame_index":0,"detections":[{'
            + ",".join(f'"{k}":{v}' for k, v in fields.items()) + "}]}")
    with pytest.raises(ParseError) as err:
        read_all(line)
    assert err.value.line_number == 1


@pytest.mark.parametrize("bbox", [
    [0, 0, 1e200, 1e200], [0, 0, 1e200, 1e-200], [-1e308, 0, 1e308, 1],
    [0, 0, 1e200, 3]])
def test_non_finite_box_geometry_rejected(bbox):
    # Such a box used to enter the tracker, whose predicted box (width
    # sqrt(area * aspect)) then overflowed and ended the run one frame
    # later with "non-finite box".  The last has a finite area and aspect
    # ratio; their product is not.
    det = {"class": "flame", "bbox": bbox, "confidence": 1}
    lines = ['{"frame_index":0,"detections":[]}',
             json.dumps({"frame_index": 1, "detections": [det]})]
    with pytest.raises(ParseError, match="non-finite area") as err:
        read_all("\n".join(lines))
    assert err.value.line_number == 2


@pytest.mark.parametrize("value", ["1.0", "true", '"1"', "null"])
def test_non_integer_frame_index_rejected(value):
    with pytest.raises(ParseError):
        read_all(ONE_FLAME.replace('"frame_index":0', f'"frame_index":{value}'))


@pytest.mark.parametrize("field, value", [
    ("detections", "null"), ("detections", "7"), ("detections", "{}"),
    ("masks", "7"), ("masks", "{}"), ("masks", "[7]")])
def test_non_list_sections_rejected(field, value):
    line = f'{{"frame_index":0,"detections":[],"{field}":{value}}}'
    with pytest.raises(ParseError):
        read_all(line)


def test_deep_nesting_rejected():
    with pytest.raises(ParseError):
        read_all("[" * 100_000 + "]" * 100_000)


@settings(max_examples=500, deadline=None)
@given(annotation_lines())
def test_fuzzed_lines_parse_or_raise_flaremon_error(line):
    try:
        ann = parse_annotation_line(line)
    except FlaremonError:
        return
    # Accepted integers were integers in the line, not truncated floats.
    obj = json.loads(line)
    assert type(obj["frame_index"]) is int
    for m in obj.get("masks") or ():
        assert all(type(v) is int for v in (m["detection"], m["width"],
                                            m["height"], *m["runs"]))
    for d in obj.get("detections", []):
        assert {type(d["confidence"]), *map(type, d["bbox"])} <= {int, float}
    for idx, mask in ann.masks or ():
        assert 0 <= idx < len(ann.detections)
    # No mask record was dropped, so no two named the same detection.
    assert len(ann.masks or ()) == len(obj.get("masks") or ())


def _parsed(parse, line):
    """What `parse` makes of a line: the annotation, or the ParseError's
    text."""
    try:
        return parse(line, 3)
    except ParseError as exc:
        return str(exc)


def _mask_line(width, height, runs):
    return ('{"frame_index":0,"detections":[{"class":"flame",'
            '"bbox":[0,0,2,2],"confidence":1.0}],"masks":[{"detection":0,'
            f'"width":{width},"height":{height},"runs":{runs}}}]}}')


@settings(max_examples=1000, deadline=None)
@given(annotation_lines(8, 6) | annotation_lines(3, 2))
@example(_mask_line(2, 3, "[-1, 7]"))  # a negative run, the right sum
@example(_mask_line(2, 3, "[1, 2, 2]"))
@example(_mask_line(0, 3, "[]"))
@example(_mask_line(2, -3, "[-6]"))
@example(_mask_line(2, 3, "[]"))
@example(_mask_line(2, 3, "[6.0]"))
def test_parser_matches_the_oracle(line):
    """Each mask checked once gives what the parser that checked it in
    four passes gave: an equal annotation, or the same error text."""
    got = _parsed(parse_annotation_line, line)
    assert got == _parsed(ingest_oracle.parse_annotation_line, line)
    if not isinstance(got, str):
        for _, mask in got.masks or ():
            assert type(mask) is Mask and type(mask.runs) is tuple
            assert all(type(v) is int for v in (mask.width, mask.height,
                                                 *mask.runs))


def test_second_mask_for_a_detection_rejected():
    # The second record used to be parsed and then never read.
    mask = '{"detection":0,"width":2,"height":2,"runs":[1,3]}'
    line = ('{"frame_index":0,"detections":[{"class":"flame",'
            '"bbox":[0,0,2,2],"confidence":1.0}],"masks":['
            + mask + "," + mask.replace("[1,3]", "[0,4]") + "]}")
    with pytest.raises(ParseError, match="^line 2: second mask for "
                       "detection 0$") as err:
        read_all(ONE_FLAME + "\n" + line.replace('"frame_index":0',
                                                 '"frame_index":1'))
    assert err.value.line_number == 2


DEFECTS = ("record must be an object with frame_index", "bad frame_index",
           "detections and masks must be lists", "is not a valid DetClass",
           "'steam' is not a valid DetClass", "bad detection record: 'bbox'",
           "bbox and confidence must be numbers", "non-finite area",
           "bad mask record", "must be integers", "bad mask: ",
           "negative run length",
           "mask references detection", "second mask for detection")


def drawn_defects(per_kind=118):
    """How many of `per_kind` derandomized annotation lines with a defect of
    each of the DEFECT_KINDS, about 2,000 lines in all, raise each of the
    DEFECTS, and how many with a mask of another size than the frame's
    parse ("wrong size").  Each kind gets its own lines, so that its share
    does not hang on how Hypothesis weighs a `sampled_from`."""
    seen = collections.Counter()
    for kind in DEFECT_KINDS:
        @settings(max_examples=per_kind, derandomize=True, database=None,
                  phases=[Phase.generate])
        @given(annotation_object(8, 6, kind).map(json.dumps))
        def sample(line):
            try:
                ann = parse_annotation_line(line)
            except FlaremonError as exc:
                seen.update(d for d in DEFECTS if d in str(exc))
                return
            if any((m.width, m.height) != (8, 6) for _, m in ann.masks or ()):
                seen["wrong size"] += 1

        sample()
    return seen


def test_fuzzed_lines_draw_every_defect():
    """Every kind of defect is still drawn, and so are masks of another
    size than the frame's, which parse.  Hypothesis also draws constants
    that it finds in every local module loaded so far, so the draws run in
    a fresh interpreter that loads this module and its imports alone: the
    tests that happen to be collected beside it do not change them."""
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run(
        [sys.executable, "-c", "from tests.test_ingest import drawn_defects; "
         "print(sorted(drawn_defects()))"],
        cwd=root, env=env, check=True, capture_output=True, text=True).stdout
    assert out.strip() == str(sorted({*DEFECTS, "wrong size"}))
