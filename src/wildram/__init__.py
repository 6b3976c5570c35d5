"""Exact workbench for wild ramification invariants of Artin-Schreier
covers of surfaces in positive characteristic."""

from .fields import FieldContext, FieldElement, embed, field, find_roots
from .laurent import (LaurentPolynomial, PrecisionLossError,
                      blowup_substitute, pole_staircase, translate, valuation)
from .staircase import (Staircase, area, depth, end_conductors,
                        essential_vertices, is_clean_shape, ramification_bound,
                        ramification_closed_form, ramification_recursive,
                        blowup_term, swan_drop)
from .reduction import (GoodRepresentative, artin_schreier_map, conductors,
                        exceptional_swan, good_representative, swan_conductor)
from .blowup import BlowupNode, ResolutionResult, SimulationConfig, resolve
from .euler import EulerReport, SurfaceConfig, euler_delta, preset
from .report import InputSpec, build_report

__version__ = "0.1.0"
