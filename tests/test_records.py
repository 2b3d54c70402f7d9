"""The record types are named tuples that keep the frozen dataclasses'
contract: fields, construction, repr, equality, hash and immutability, and
the checks of the six that check their fields, `_replace` included."""

import numpy as np
import pytest

from flaremon.classify import ClassifierModel
from flaremon.core import BBox, DetClass, Detection, Frame, Mask
from flaremon.errors import ParseError
from flaremon.features import FeatureVector
from flaremon.formats import EfficiencyModel, StatusRecord
from flaremon.ingest import FrameAnnotation
from flaremon.labeling import LabeledSample, LlmClientConfig
from flaremon.pipeline import Alert
from flaremon.simulator import (FlameSpec, RenderedFrame, SceneSpec,
                                SmokeSpec, StackSpec, StackTruth)
from flaremon.stats import PcaModel, StandardizationParams

BOX = BBox(1.0, 2.0, 5.5, 9.0)
BOX_TEXT = "BBox(x_min=1.0, y_min=2.0, x_max=5.5, y_max=9.0)"
FV = FeatureVector(0.25, 0.6, 12.5)
FV_TEXT = ("FeatureVector(smoke_flame_ratio=0.25, rgb_index=0.6, "
           "flame_angle=12.5)")
ONE = np.array([1.0])
PIXELS = np.zeros((1, 1, 3), dtype=np.uint8)

# One record of each type, and its repr: the text the frozen dataclasses
# printed.  Fields whose type is not checked hold placeholders.
RECORDS = [
    (BOX, BOX_TEXT),
    (Detection(BOX, DetClass.FLAME, 0.9),
     f"Detection(bbox={BOX_TEXT}, cls=<DetClass.FLAME: 'flame'>, "
     "confidence=0.9)"),
    (Mask(2, 2, (1, 2, 1)), "Mask(width=2, height=2, runs=(1, 2, 1))"),
    (Frame(3, 0.12, 1, 1, PIXELS),
     "Frame(index=3, timestamp=0.12, width=1, height=1, "
     "pixels=array([[[0, 0, 0]]], dtype=uint8))"),
    (FrameAnnotation(3, ()),
     "FrameAnnotation(frame_index=3, detections=(), masks=None)"),
    (FV, FV_TEXT),
    (EfficiencyModel("std", "pca", "clf", {"created": "x"}),
     "EfficiencyModel(standardization='std', pca='pca', classifier='clf', "
     "metadata={'created': 'x'})"),
    (StatusRecord(3, 1, FV, (0.5, -0.25), "low"),
     f"StatusRecord(frame=3, track_id=1, features={FV_TEXT}, "
     "pcs=(0.5, -0.25), label='low')"),
    (StandardizationParams(ONE, ONE),
     "StandardizationParams(means=array([1.]), stds=array([1.]))"),
    (PcaModel(ONE, ONE, ONE),
     "PcaModel(components=array([1.]), eigenvalues=array([1.]), "
     "explained_variance_fraction=array([1.]))"),
    (ClassifierModel("knn", {"k": 1}, 0),
     "ClassifierModel(kind='knn', parameters={'k': 1}, parameter_count=0)"),
    (Alert(1, 2, 6, FV, (0.5, -0.25)),
     f"Alert(track_id=1, first_frame=2, last_frame=6, features={FV_TEXT}, "
     "pcs=(0.5, -0.25))"),
    (FlameSpec(10.0, 20.0, 8.0, 3.0, tilt_deg=5.0),
     "FlameSpec(base_x=10.0, base_y=20.0, major=8.0, minor=3.0, "
     "tilt_deg=5.0, drift=(0.0, 0.0), core_color=(90, 110, 245), "
     "edge_color=(130, 150, 250))"),
    (SmokeSpec(area_multiplier=0.2),
     "SmokeSpec(area_multiplier=0.2, gray=110, gap=8.0)"),
    (StackSpec("flame", None, "high"),
     "StackSpec(flame='flame', smoke=None, regime='high')"),
    (SceneSpec(frame_count=3),
     "SceneSpec(width=320, height=240, frame_count=3, rng_seed=7, "
     "stacks=(), noise_amplitude=6)"),
    (StackTruth(0, "high", 5.0, False, BOX, None, None, None),
     f"StackTruth(stack_id=0, regime='high', tilt_deg=5.0, truncated=False, "
     f"flame_box={BOX_TEXT}, flame_mask=None, smoke_box=None, "
     "smoke_mask=None)"),
    (RenderedFrame("frame", (), "annotation"),
     "RenderedFrame(frame='frame', truths=(), annotation='annotation')"),
    (LlmClientConfig("http://localhost:9/", "m"),
     "LlmClientConfig(endpoint='http://localhost:9/', model='m')"),
    (LabeledSample(FV, "high", "rule"),
     f"LabeledSample(features={FV_TEXT}, label='high', source='rule', "
     "transcript=None)"),
]
RECORD_IDS = [type(r).__name__ for r, _ in RECORDS]


@pytest.mark.parametrize("record, text", RECORDS, ids=RECORD_IDS)
def test_repr_is_the_dataclass_text(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", [r for r, _ in RECORDS], ids=RECORD_IDS)
def test_records_are_immutable(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.other = None


@pytest.mark.parametrize("record", [r for r, _ in RECORDS], ids=RECORD_IDS)
def test_positional_and_keyword_construction_agree(record):
    rebuilt = type(record)(**record._asdict())
    assert rebuilt == record and rebuilt == type(record)(*record)
    assert type(rebuilt) is type(record)


# The records without an array, dict or list, which hash.
HASHABLE = [r for r, _ in RECORDS if not isinstance(
    r, (Frame, EfficiencyModel, StandardizationParams, PcaModel,
        ClassifierModel))]


@pytest.mark.parametrize("record", HASHABLE,
                         ids=[type(r).__name__ for r in HASHABLE])
def test_equal_records_hash_equal(record):
    copy = type(record)(*record)
    assert copy == record and copy is not record
    assert hash(copy) == hash(record)


@pytest.mark.parametrize("record, change", [
    (BOX, {"x_max": 1.0}),
    (BOX, {"y_min": float("inf")}),
    (Detection(BOX, DetClass.SMOKE, 0.5), {"confidence": 1.5}),
    (Mask(2, 2, (4,)), {"runs": (1, 2)}),
    (Mask(2, 2, (4,)), {"runs": (-1, 5)}),
    (Mask(2, 2, (4,)), {"width": 2.0}),
    (Mask(2, 2, (4,)), {"height": 0, "runs": ()}),
    (Frame(0, 0.0, 1, 1, PIXELS), {"width": 2}),
    (FlameSpec(10.0, 20.0, 8.0, 3.0, 5.0), {"tilt_deg": 90.0}),
    (FlameSpec(10.0, 20.0, 8.0, 3.0, 5.0), {"minor": 0.0}),
    (FlameSpec(10.0, 20.0, 8.0, 3.0, 5.0), {"core_color": (0, 0, 256)}),
    (SmokeSpec(0.2), {"gray": 40000}),
    (SceneSpec(), {"frame_count": 0}),
    (SceneSpec(), {"width": 0}),
    (SceneSpec(), {"width": -5}),
    (SceneSpec(), {"height": 240.0}),
    (SceneSpec(), {"noise_amplitude": -3}),
    (SceneSpec(), {"noise_amplitude": 2.5}),
    (SceneSpec(), {"noise_amplitude": 40000}),
], ids=lambda v: type(v).__name__ if hasattr(v, "_fields") else str(v))
def test_replace_runs_the_constructor_checks(record, change):
    with pytest.raises((ValueError, ParseError)) as built:
        type(record)(**{**record._asdict(), **change})
    with pytest.raises(built.type) as replaced:
        record._replace(**change)
    assert str(replaced.value) == str(built.value)


def test_records_are_tuples():
    """The library API change: a record iterates, and equals the plain
    tuple of its values."""
    assert tuple(BOX) == (1.0, 2.0, 5.5, 9.0) == BOX
    assert Mask(2, 2, (1, 2, 1)) == (2, 2, (1, 2, 1))
    x_min, *_ = BOX
    assert x_min == 1.0


def test_keyword_fields_and_checked_defaults():
    det = Detection(BOX, cls=DetClass.SMOKE, confidence=0.5)
    assert det.cls is DetClass.SMOKE
    frame = Frame(0, timestamp=0.0, width=1, height=1, pixels=PIXELS)
    assert frame.index == 0 and frame.timestamp == 0.0
    spec = FlameSpec(1.0, 2.0, 3.0, 4.0, 5.0)
    assert (spec.drift, spec.core_color, spec.edge_color) == (
        (0.0, 0.0), (90, 110, 245), (130, 150, 250))
    assert SceneSpec() == (320, 240, 200, 7, (), 6)


def test_mask_runs_have_no_default():
    """No mask of at least one pixel has runs that sum to 0."""
    with pytest.raises(TypeError):
        Mask(2, 2)
