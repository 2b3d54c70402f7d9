"""Streaming flare-stack combustion monitoring from visual features."""

__version__ = "0.1.0"
