"""Set-up probe: import the package, build the registry and catalogue, say ready.

``run.py`` launches this several times and times each launch from process
start to the ``ready`` line, which is the set-up a sweep user pays before
the first trial.
"""

from repro.runtime import SCENARIOS, default_registry

if not default_registry().names() or not SCENARIOS:
    raise SystemExit("empty protocol registry or scenario catalogue")
print("ready", flush=True)
