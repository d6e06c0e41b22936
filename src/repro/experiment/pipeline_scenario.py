"""The ``pipeline`` scenario: a second application, same control plane.

This is the style-generality claim made runnable end to end.  A simulated
batch pipeline (:class:`~repro.app.pipeline_app.PipelineApplication`) is
wrapped in :class:`ManagedApplication` and adapted by the *same*
:class:`~repro.runtime.core.AdaptationRuntime` the client/server
experiment uses — different family, invariant, operators, probes, and
translator, but zero new control-plane machinery:

* workload: a Poisson item stream that bursts above the bottleneck
  stage's capacity mid-run (analogous to the Figure 7 stress phase);
* monitoring: per-stage backlog probes -> windowed backlog gauges, plus
  worker-occupancy probes -> EWMA utilization gauges, both through the
  generic :class:`~repro.runtime.updater.PropertyUpdater`;
* constraints: the style's ``backlog <= maxBacklog`` invariant plus the
  ``idleWidth`` underutilization invariant, both scoped to ``FilterT``;
* repair: ``fixBacklog`` from :data:`~repro.styles.pipeline.PIPELINE_DSL`
  widens the violating stage within a worker budget, and ``shrinkStage``
  narrows an idle stage back toward its designed ``minWidth`` once the
  burst passes (the scale-down mirror);
* translation: :class:`PipelineTranslator` charges a worker spin-up cost,
  applies ``setStageWidth``, and blanks the stage's gauges for the
  redeployment window.

Every knob lives in the typed
:class:`~repro.experiment.params.PipelineParams` block; the scenario
consumes a scenario-neutral :class:`~repro.experiment.config.RunConfig`
and returns a :class:`~repro.experiment.result.PipelineResult`.

The control run injects the identical seeded workload with no adaptation:
the bottleneck backlog grows throughout the burst and never drains inside
the horizon, while the adapted run widens the stage and recovers.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.app.pipeline_app import PipelineApplication
from repro.bus.bus import FixedDelay
from repro.errors import TranslationError
from repro.experiment.config import RunConfig, as_run_config
from repro.experiment.params import PipelineParams
from repro.experiment.result import PipelineResult
from repro.experiment.series import TimeSeries
from repro.experiment.workload import BurstArrivals
from repro.monitoring.gauges import BacklogGauge, UtilizationGauge
from repro.monitoring.probes import StageBacklogProbe, StageUtilizationProbe
from repro.repair.history import RepairHistory
from repro.runtime import (
    AdaptationRuntime,
    AdaptationSpec,
    GaugeBinding,
    IntentExecutor,
    ManagedApplication,
    ProbeBinding,
)
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sim.trace import Trace
from repro.styles.pipeline import (
    PIPELINE_DSL,
    build_pipeline_family,
    build_pipeline_model,
    pipeline_operators,
)
from repro.util.rng import SeedSequenceFactory

__all__ = [
    "PipelineExperiment",
    "PipelineManagedApplication",
    "PipelineTranslator",
]

class PipelineTranslator(IntentExecutor):
    """Replays committed ``widenStage``/``narrowStage`` intents.

    The pipeline analogue of :class:`~repro.translation.translator.Translator`:
    each intent charges its cost *before* taking effect, then triggers a
    gauge redeployment for the affected stage (the monitoring blind spot).
    """

    INTENT_OPS = frozenset({"widenStage", "narrowStage"})

    def __init__(
        self,
        app: PipelineApplication,
        gauge_manager=None,
        trace: Optional[Trace] = None,
        widen_cost: float = PipelineParams.widen_cost,
        redeploy_window: float = PipelineParams.redeploy_window,
    ):
        self.app = app
        self.sim = app.sim
        self.gauge_manager = gauge_manager
        self.trace = trace if trace is not None else app.trace
        self.widen_cost = float(widen_cost)
        self.redeploy_window = float(redeploy_window)
        self.executed: List = []

    def execute(self, intents, on_done=None) -> Process:
        return Process(
            self.sim, self._run(list(intents), on_done), name="pipeline-translator"
        )

    def _run(self, intents, on_done):
        for intent in intents:
            if intent.op not in ("widenStage", "narrowStage"):
                raise TranslationError(
                    f"no pipeline mapping for intent {intent.op!r}"
                )
            self.trace.emit(
                self.sim.now, "translate.begin",
                op=intent.op, cost=self.widen_cost, **intent.args,
            )
            if self.widen_cost > 0:
                yield self.sim.timeout(self.widen_cost)
            self.app.set_width(intent.args["stage"], intent.args["width"])
            self.executed.append(intent)
            if self.gauge_manager is not None:
                self.gauge_manager.redeploy_for(
                    intent.args["stage"], self.redeploy_window
                )
        if on_done is not None:
            on_done()


class PipelineManagedApplication(ManagedApplication):
    """The batch pipeline wrapped for the adaptation runtime."""

    name = "batch-pipeline"

    def __init__(self, app: PipelineApplication,
                 params: Optional[PipelineParams] = None):
        self.app = app
        self.params = params if params is not None else PipelineParams()

    def architecture(self):
        model = build_pipeline_model(
            "PipelineModel", self.app.stage_order, family=build_pipeline_family()
        )
        for stage in self.app.stages:
            comp = model.component(stage.name)
            comp.set_property("width", stage.width)
            # the initial width is the designed floor the shrink repair
            # may narrow an over-widened stage back down to
            comp.set_property("minWidth", stage.width)
            comp.set_property("serviceRate", stage.service_rate)
        return model

    def intent_executor(self, runtime: AdaptationRuntime) -> PipelineTranslator:
        return PipelineTranslator(
            self.app,
            gauge_manager=runtime.gauge_manager,
            trace=runtime.trace,
            widen_cost=self.params.widen_cost,
            redeploy_window=self.params.redeploy_window,
        )


class PipelineMetricsSampler:
    """Out-of-band ground-truth sampling for the pipeline scenario.

    Series: ``backlog.<stage>``, ``width.<stage>``, and ``repair.active``
    (mirroring the client/server sampler's shape so reporting helpers and
    result consumers work unchanged).
    """

    def __init__(self, experiment: "PipelineExperiment"):
        self.experiment = experiment
        self.period = experiment.config.sample_period
        self.series: Dict[str, TimeSeries] = {}
        for stage in experiment.app.stage_order:
            self.series[f"backlog.{stage}"] = TimeSeries(f"backlog.{stage}", "items")
            self.series[f"width.{stage}"] = TimeSeries(f"width.{stage}", "workers")
        self.series["repair.active"] = TimeSeries("repair.active", "")

    def start(self) -> Process:
        return Process(
            self.experiment.sim, self._run(), name="pipeline-metrics-sampler"
        )

    def _run(self):
        sim = self.experiment.sim
        while True:
            self.sample()
            yield sim.timeout(self.period)

    def sample(self) -> None:
        exp = self.experiment
        now = exp.sim.now
        for stage in exp.app.stages:
            self.series[f"backlog.{stage.name}"].append(now, float(stage.backlog))
            self.series[f"width.{stage.name}"].append(now, float(stage.width))
        manager = exp.runtime.manager if exp.runtime is not None else None
        busy = 1.0 if (manager is not None and manager.busy) else 0.0
        self.series["repair.active"].append(now, busy)


class PipelineExperiment:
    """One wired pipeline run (control or adapted), ready to run."""

    def __init__(self, config: RunConfig):
        config = as_run_config(config)
        self.config = config
        self.params: PipelineParams = config.params
        params = self.params
        self.sim = Simulator()
        self.trace = Trace()
        self.seeds = SeedSequenceFactory(config.seed)
        self.app = PipelineApplication(self.sim, params.stages, trace=self.trace)
        self.workload = BurstArrivals(
            self.sim,
            horizon=config.horizon,
            baseline_rate=params.baseline_rate,
            burst_rate=params.burst_rate,
            rng=self.seeds.rng("pipeline.source"),
            submit=self.app.submit,
            name="pipeline-source",
        )
        self.burst_start = self.workload.burst_start
        self.burst_end = self.workload.burst_end
        self.runtime: Optional[AdaptationRuntime] = None
        if config.adaptation:
            self.runtime = AdaptationRuntime(
                self.sim,
                PipelineManagedApplication(self.app, params),
                self._adaptation_spec(),
                trace=self.trace,
            )
        self.metrics = PipelineMetricsSampler(self)

    def build(self) -> Optional[AdaptationRuntime]:
        """The control plane bound to this config (Scenario protocol)."""
        return self.runtime

    def _adaptation_spec(self) -> AdaptationSpec:
        params = self.params
        app = self.app
        instruments: List = []
        for stage in app.stage_order:
            instruments.append(ProbeBinding(
                lambda rt, s=stage: StageBacklogProbe(
                    rt.sim, rt.probe_bus, app, s, period=params.load_probe_period,
                ),
                periodic=True,
            ))
            instruments.append(GaugeBinding(
                lambda rt, s=stage: BacklogGauge(
                    rt.sim, rt.probe_bus, rt.gauge_bus, s,
                    period=params.gauge_period, horizon=params.load_horizon,
                ),
                entities=[stage],
            ))
            instruments.append(ProbeBinding(
                lambda rt, s=stage: StageUtilizationProbe(
                    rt.sim, rt.probe_bus, app, s, period=params.load_probe_period,
                ),
                periodic=True,
            ))
            instruments.append(GaugeBinding(
                lambda rt, s=stage: UtilizationGauge(
                    rt.sim, rt.probe_bus, rt.gauge_bus, s,
                    period=params.gauge_period,
                ),
                entities=[stage],
            ))
        return AdaptationSpec(
            style="PipelineFam",
            dsl_source=PIPELINE_DSL,
            invariant_scopes={"b": "FilterT", "u": "FilterT"},
            bindings={
                "maxBacklog": params.max_backlog,
                "lowWater": params.low_water,
                "minUtilization": params.min_utilization,
            },
            operators=lambda rt: pipeline_operators(
                worker_budget=params.worker_budget
            ),
            instruments=instruments,
            gauge_property_map={"backlog": "backlog", "utilization": "utilization"},
            delivery=FixedDelay(0.05),
            gauge_caching=params.gauge_caching,
            settle_time=params.settle_time,
            failed_repair_cost=params.failed_repair_cost,
            violation_policy=params.violation_policy,
        )

    # -- execution ---------------------------------------------------------
    def run(self) -> PipelineResult:
        cfg = self.config
        self.workload.start()
        if self.runtime is not None:
            self.runtime.start()
        self.metrics.start()
        self.sim.run(until=cfg.horizon)
        rt = self.runtime
        stats = rt.stats() if rt is not None else None
        return PipelineResult(
            config=cfg,
            series=self.metrics.series,
            trace=self.trace,
            history=rt.history if rt is not None else RepairHistory(),
            issued=self.app.issued,
            completed=self.app.completed,
            dropped=0,
            bus_stats=dict(stats.bus) if stats is not None else {},
            gauge_stats=dict(stats.gauges) if stats is not None else {},
            constraint_stats=dict(stats.constraints) if stats is not None else {},
            stats=stats,
        )
