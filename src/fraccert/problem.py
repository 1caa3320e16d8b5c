"""Assembled two-equation problem: kernels, thresholds and nonlinearities."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .exprlang import Expr, parse
from .kernel import KernelModel, ProblemParams, build_model
from .quadrature import ConstantsReport, compute_constants

__all__ = ["Options", "Problem"]


@dataclass(frozen=True)
class Options:
    """Certification options shared by both equations.

    conservative selects the envelope estimates (m_hat, M_hat) as
    thresholds; they are sound for every certificate direction since
    m_hat <= m and M_hat >= M. margin is the strict-inequality slack
    delta: a sampled sup passes below threshold - delta, an inf above
    threshold + delta. These are the defaults of a config that omits
    them; margin is stored as a float.
    """

    conservative: bool = True
    margin: float = 1e-9

    def __post_init__(self):
        object.__setattr__(self, "margin", float(self.margin))
        if not self.margin >= 0.0:
            raise ValueError(f"margin must be >= 0, got {self.margin!r}")


@dataclass(frozen=True)
class Problem:
    """Two coupled equations ready for certification and solving."""

    models: tuple[KernelModel, KernelModel]
    f: tuple[Expr, Expr]
    f_text: tuple[str, str]
    options: Options = field(default_factory=Options)
    constants: tuple[ConstantsReport, ConstantsReport] | None = None

    @classmethod
    def build(cls, params: tuple[ProblemParams, ProblemParams], f_text: tuple[str, str],
              options: Options = Options(), with_constants: bool = True) -> "Problem":
        """Verify kernels, parse nonlinearities, optionally compute constants."""
        models = (build_model(params[0]), build_model(params[1]))
        exprs = (parse(f_text[0]), parse(f_text[1]))
        constants = None
        if with_constants:
            constants = (compute_constants(models[0]), compute_constants(models[1]))
        return cls(models=models, f=exprs, f_text=tuple(f_text), options=options,
                   constants=constants)

    def with_conservative(self, conservative: bool) -> "Problem":
        return replace(self, options=replace(self.options, conservative=conservative))

    def params(self, i: int) -> ProblemParams:
        return self.models[i - 1].params

    def c(self, i: int) -> float:
        return self.models[i - 1].c

    def b(self, i: int) -> float:
        return self.models[i - 1].params.b

    def _report(self, i: int) -> ConstantsReport:
        if self.constants is None:
            raise ValueError("problem was built without threshold constants")
        return self.constants[i - 1]

    def m_used(self, i: int) -> float:
        r = self._report(i)
        return r.m_hat if self.options.conservative else r.m

    def M_used(self, i: int) -> float:
        r = self._report(i)
        return r.M_hat if self.options.conservative else r.M
