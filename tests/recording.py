"""A stage observer for staged protocols such as ``pmqc_run``.

``Recorder`` forwards every draw to the source it wraps and hands each state
that the protocol checkpoints to a callback.  It keeps the default
``resume``, so the protocol never resumes from a checkpoint: every leaf runs
all of its stages from the root, and the callback sees each one.
"""

from uqres import protocols as pr


class Recorder(pr.OutcomeSource):
    def __init__(self, source, record):
        self.source, self.record = source, record

    def draw(self, label, probs):
        return self.source.draw(label, probs)

    def checkpoint(self, state):
        self.record(state)
