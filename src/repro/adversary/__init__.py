"""Deterministic fault & schedule injection for the CONGEST runtime.

Four layers:

* :mod:`repro.adversary.spec` — :class:`AdversarySpec`, the frozen,
  hashable description of message faults (drop/delay/duplicate, rate-based
  or per-edge scheduled), node faults (crash-stop schedules), agreement
  input schedules, adaptive traffic-conditioned strategies, and
  per-edge eavesdropping;
* :mod:`repro.adversary.armed` — :class:`ArmedAdversary`, the per-run
  mutable state (crash plan, delay queue, fault accounting) every
  :class:`~repro.network.engine.SynchronousEngine` dispatch path consumes;
* :mod:`repro.adversary.adaptive` — :class:`AdaptiveAdversary`, the
  traffic-conditioned subclass fed by the engine's per-round observation
  callback (targeted-leader suppression/crash, reactive congestion drops,
  eavesdropping with a security-accounting ledger);
* :mod:`repro.adversary.inputs` — adversarial initial-value assignment for
  the agreement protocols.

Everything is seed-reproducible: the adversary draws from its own
:class:`~repro.util.rng.RandomSource` stream (derived per trial, or pinned
via ``AdversarySpec.seed``), consumed identically by every engine dispatch
path — property tests assert bit-identical trial results across the
``fast``/``reference``/batch paths under the same spec and seed, static
and adaptive alike.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.adversary.adaptive": ("AdaptiveAdversary",),
        "repro.adversary.armed": ("ArmedAdversary",),
        "repro.adversary.inputs": ("adversarial_inputs", "benign_inputs"),
        "repro.adversary.spec": (
            "ADAPTIVE_STRATEGIES",
            "INPUT_SCHEDULES",
            "NULL_ADVERSARY",
            "AdversarySpec",
        ),
    },
)
