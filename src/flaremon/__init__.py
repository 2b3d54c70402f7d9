"""Streaming flare-stack combustion monitoring from visual features."""

from .core import BBox, DetClass, Detection, Frame, Mask, box_center, iou
from .features import FeatureVector
from .formats import EfficiencyModel, load_model, save_model
from .ingest import FrameAnnotation, read_annotation_stream, write_annotation_stream
from .pipeline import (Alert, MonitorConfig, fit_efficiency_model, run_monitor,
                       run_training)
from .simulator import SceneSpec, preset, render
from .tracker import SortParams, SortTracker, hungarian

__version__ = "0.1.0"
