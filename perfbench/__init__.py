"""The repository's benchmark: the study and the serve daemon, end to end and per layer.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload against the program in ``src/`` and prints, as its
last line, one JSON result. See ``perfbench/README.md``.
"""
