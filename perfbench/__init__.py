"""perfbench: end-to-end and per-layer benchmark of the five DCPI
pipelines of this repository (see README.md in this directory)."""
