"""The repo's named benchmark: real forwards and simulated days.

See ``bench/README.md``.  Everything here observes ``repro`` from outside
(public calls, wrapped methods of injected objects, ablation); nothing under
``src/`` knows this package exists.
"""
