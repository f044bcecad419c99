"""Shared container for a chart plus named objects and check directives.

Both the built-in scenarios and parsed DSL documents produce a Model, so the
check runner and the CLI treat them identically and a document can be compared
structurally against a scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import LaurentPoly
from .calculus import DiffForm, VectorField, VolumeForm
from .groups import GroupPresentation
from .variety import Chart, SubstitutionAction


@dataclass(frozen=True)
class CheckDirective:
    """One executable check: a registry kind plus resolved-by-name arguments.

    Arguments are names (str), integers, Fractions, or nested tuples of
    those; resolution against a Model happens at execution time."""

    kind: str
    args: tuple = ()

    def label(self) -> str:
        return f"{self.kind}({', '.join(_render_arg(a) for a in self.args)})"


def _render_arg(arg) -> str:
    if isinstance(arg, tuple):
        return "(" + ", ".join(_render_arg(a) for a in arg) + ")"
    return str(arg)


@dataclass(eq=True)
class Model:
    """A chart with named fields/forms/polynomials/actions/groups and checks."""

    name: str = field(default="", compare=False)
    chart: Chart | None = None
    volume: VolumeForm | None = None
    volume_name: str | None = None
    fields: dict[str, VectorField] = field(default_factory=dict)
    forms: dict[str, DiffForm] = field(default_factory=dict)
    polys: dict[str, LaurentPoly] = field(default_factory=dict)
    actions: dict[str, SubstitutionAction] = field(default_factory=dict)
    groups: dict[str, GroupPresentation] = field(default_factory=dict)
    checks: tuple[CheckDirective, ...] = ()

    def lookup(self, name: str):
        """Resolve a name across the single namespace; None when absent."""
        if self.volume_name is not None and name == self.volume_name:
            return self.volume
        for table in (self.fields, self.forms, self.polys, self.actions, self.groups):
            if name in table:
                return table[name]
        if self.chart is not None and name in self.chart.coordinates:
            return self.chart.generator(name)
        return None
