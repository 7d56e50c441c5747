// Package kertbn is a Go implementation of the Knowledge-Enhanced Response
// Time Bayesian Network (KERT-BN) of Zhang, Bivens and Rezek, "Efficient
// Statistical Performance Modeling for Autonomic, Service-Oriented Systems"
// (IPDPS 2007), together with every substrate the paper's evaluation rests
// on: a Bayesian-network engine (tabular, linear-Gaussian and
// deterministic-with-leak CPDs; variable elimination, joint-Gaussian and
// Monte-Carlo inference; K2 structure learning), a workflow algebra with
// Cardoso-style response-time reduction, a service-oriented system
// simulator, a monitoring pipeline, and decentralized parameter learning.
//
// # Quick start
//
// Describe the workflow, generate (or collect) per-service elapsed-time
// data, build the model, and query it:
//
//	wf := kertbn.EDiaMoND()
//	sys := kertbn.EDiaMoNDSystem()
//	rng := kertbn.NewRNG(1)
//	train, _ := sys.GenerateDataset(1200, rng)
//	model, _ := kertbn.BuildKERT(kertbn.DefaultKERTConfig(wf), train)
//	post, _ := kertbn.PAccel(model, 3, 0.9*0.22, kertbn.PAccelOptions{})
//	fmt.Println("projected response time:", post.Mean())
//
// The package root re-exports the public surface; implementation lives in
// internal packages (core, bn, learn, infer, workflow, simsvc, monitor,
// decentral, experiments).
package kertbn

import (
	"kertbn/internal/core"
	"kertbn/internal/dataset"
	"kertbn/internal/decentral"
	"kertbn/internal/experiments"
	"kertbn/internal/infer"
	"kertbn/internal/learn"
	"kertbn/internal/monitor"
	"kertbn/internal/simsvc"
	"kertbn/internal/stats"
	"kertbn/internal/workflow"
)

// Workflow is a tree of the four service-composition constructs (sequence,
// parallel, choice, loop) whose Cardoso reduction yields the deterministic
// response-time function f(X) of Equation 4.
type Workflow = workflow.Node

// Edge is an immediate-upstream relation between two services.
type Edge = workflow.Edge

// ResourceSharing declares that a set of services shares a resource.
type ResourceSharing = workflow.ResourceSharing

// Workflow constructors.
var (
	// Task builds a service-invocation leaf.
	Task = workflow.Task
	// Seq composes children sequentially (elapsed times add).
	Seq = workflow.Seq
	// Par composes children in parallel (elapsed times max).
	Par = workflow.Par
	// Choice composes exclusive branches with probabilities.
	Choice = workflow.Choice
	// Loop repeats its child with a continuation probability.
	Loop = workflow.Loop
	// EDiaMoND builds the paper's six-service reference scenario.
	EDiaMoND = workflow.EDiaMoND
	// GenerateWorkflow builds a random workflow over n services.
	GenerateWorkflow = workflow.Generate
	// DefaultWorkflowGenOptions mirrors the paper's simulated applications.
	DefaultWorkflowGenOptions = workflow.DefaultGenOptions
	// ParseWorkflow reads the textual workflow notation, e.g.
	// "seq(a, b, par(c, d))".
	ParseWorkflow = workflow.Parse
)

// EDiaMoNDServiceNames lists the reference scenario's services in index
// order (X1..X6 of the paper's Figure 2).
var EDiaMoNDServiceNames = workflow.EDiaMoNDServiceNames

// Model is a constructed response-time Bayesian network (KERT-BN or
// NRT-BN) ready for likelihood scoring and posterior queries.
type Model = core.Model

// ModelType selects continuous (linear-Gaussian) or discrete (binned)
// modeling.
type ModelType = core.ModelType

// Model types.
const (
	ContinuousModel = core.ContinuousModel
	DiscreteModel   = core.DiscreteModel
)

// KERTConfig configures knowledge-enhanced model construction.
type KERTConfig = core.KERTConfig

// MetricKind selects the modeled transaction metric (Section 3.3).
type MetricKind = core.MetricKind

// Metric kinds.
const (
	// ResponseTimeMetric models end-to-end response time (f = Cardoso
	// reduction of the workflow).
	ResponseTimeMetric = core.ResponseTimeMetric
	// TimeoutCountMetric models end-to-end timeout counts (f = Σ X_i).
	TimeoutCountMetric = core.TimeoutCountMetric
)

// NRTConfig configures the data-only baseline (K2 + parameter learning).
type NRTConfig = core.NRTConfig

// Posterior is a one-dimensional posterior distribution summary.
type Posterior = core.Posterior

// DCompOptions, PAccelOptions and PLocalOptions tune the autonomic
// applications.
type (
	DCompOptions  = core.DCompOptions
	PAccelOptions = core.PAccelOptions
	PLocalOptions = core.PLocalOptions
	// Suspicion is one service's problem-localization score.
	Suspicion = core.Suspicion
)

// ScheduleConfig encodes the periodic reconstruction scheme
// (T_CON = α·T_DATA, W = K·T_CON).
type ScheduleConfig = core.ScheduleConfig

// Scheduler drives periodic model reconstruction over a sliding window.
type Scheduler = core.Scheduler

// Model construction and applications.
var (
	// BuildKERT constructs a KERT-BN from workflow knowledge plus data.
	BuildKERT = core.BuildKERT
	// BuildNRT learns an NRT-BN from data alone.
	BuildNRT = core.BuildNRT
	// DefaultKERTConfig returns the paper's Section-4 settings.
	DefaultKERTConfig = core.DefaultKERTConfig
	// DefaultNRTConfig returns the Section-4 baseline settings.
	DefaultNRTConfig = core.DefaultNRTConfig
	// DComp infers an unobservable service's elapsed-time posterior.
	DComp = core.DComp
	// PAccel projects the response-time posterior after a local change.
	PAccel = core.PAccel
	// PLocal ranks services by involvement in an observed violation
	// (performance problem localization).
	PLocal = core.PLocal
	// ResponseTimePosterior returns p(D | evidence).
	ResponseTimePosterior = core.ResponseTimePosterior
	// PriorMarginal returns a node's no-evidence marginal.
	PriorMarginal = core.PriorMarginal
	// ThresholdViolationError computes ε of Equation 5.
	ThresholdViolationError = core.ThresholdViolationError
	// ThresholdSweep evaluates ε across thresholds.
	ThresholdSweep = core.ThresholdSweep
	// NewScheduler creates a periodic reconstruction scheduler that
	// rebuilds through an incremental builder such as NewIncrementalKERT's.
	NewScheduler = core.NewSchedulerIncremental
	// NewIncrementalKERT creates a KERT-BN builder over a sliding window
	// that refits from sufficient statistics.
	NewIncrementalKERT = core.NewIncrementalKERT
	// ColumnNames returns the canonical dataset column layout.
	ColumnNames = core.ColumnNames
	// SaveModel serializes a model for later query-only use.
	SaveModel = core.SaveModel
	// LoadModel reconstructs a model written by SaveModel.
	LoadModel = core.LoadModel
)

// WorkflowSpec is the serializable (gob/json) form of a workflow tree.
type WorkflowSpec = workflow.Spec

// WorkflowFromSpec rebuilds a workflow from its serialized form.
var WorkflowFromSpec = workflow.FromSpec

// Dataset is a rectangular table of observations.
type Dataset = dataset.Dataset

// Window is the sliding data window W = K·T_CON.
type Window = dataset.Window

// Dataset helpers.
var (
	// NewDataset creates an empty dataset with named columns.
	NewDataset = dataset.New
	// ReadCSV parses a dataset from CSV.
	ReadCSV = dataset.ReadCSV
	// NewWindow creates a sliding window.
	NewWindow = dataset.NewWindow
)

// System is a simulated service-oriented environment that generates
// observation rows.
type System = simsvc.System

// DES is the discrete-event simulator with queueing stations.
type DES = simsvc.DES

// DESConfig configures a discrete-event simulation.
type DESConfig = simsvc.DESConfig

// StationConfig describes one service's queueing station.
type StationConfig = simsvc.StationConfig

// Regime schedules a mid-simulation service-speed change in the DES.
type Regime = simsvc.Regime

// DelayDist is a parametric delay distribution.
type DelayDist = simsvc.DelayDist

// DistKind enumerates the delay distribution families.
type DistKind = simsvc.DistKind

// Delay distribution kinds.
const (
	DistGamma       = simsvc.DistGamma
	DistLogNormal   = simsvc.DistLogNormal
	DistExponential = simsvc.DistExponential
	DistUniform     = simsvc.DistUniform
	DistNormalPos   = simsvc.DistNormalPos
)

// ServiceSpec describes one simulated service's delay behaviour.
type ServiceSpec = simsvc.ServiceSpec

// CountSystem simulates the timeout-count metric (per-service counters
// whose end-to-end total is their sum).
type CountSystem = simsvc.CountSystem

// Simulator helpers.
var (
	// EDiaMoNDSystem builds the six-service testbed stand-in.
	EDiaMoNDSystem = simsvc.EDiaMoNDSystem
	// EDiaMoNDCountSystem builds the timeout-count variant of the scenario.
	EDiaMoNDCountSystem = simsvc.EDiaMoNDCountSystem
	// RandomSystem builds a random n-service system.
	RandomSystem = simsvc.RandomSystem
	// DefaultRandomSystemOptions mirrors the Section-4 simulation scale.
	DefaultRandomSystemOptions = simsvc.DefaultRandomSystemOptions
	// NewDES builds a discrete-event simulator.
	NewDES = simsvc.NewDES
	// RecordsToDataset converts DES records to the canonical layout.
	RecordsToDataset = simsvc.RecordsToDataset
)

// RNG is the deterministic random number generator every simulation and
// experiment draws from.
type RNG = stats.RNG

// NewRNG seeds a generator.
var NewRNG = stats.NewRNG

// Decentralized parameter learning (Section 3.4): per-service agents learn
// their own CPDs concurrently from local plus parent-shipped data.
type (
	// NodePlan describes one agent's learning task.
	NodePlan = decentral.NodePlan
	// DecentralResult aggregates a decentralized learning round.
	DecentralResult = decentral.Result
	// Columns supplies per-node observation columns.
	Columns = decentral.Columns
	// Shipper moves parent columns between agents.
	Shipper = decentral.Shipper
	// InProcShipper copies columns in-process.
	InProcShipper = decentral.InProcShipper
	// TCPFabric ships columns through real TCP sockets with gob encoding.
	TCPFabric = decentral.TCPFabric
	// LearnOptions controls CPT smoothing during parameter learning.
	LearnOptions = learn.Options
)

// Decentralized learning entry points.
var (
	// PlanFromNetwork extracts per-node learning plans from a structure.
	PlanFromNetwork = decentral.PlanFromNetwork
	// LearnDecentralized runs one concurrent learning round.
	LearnDecentralized = decentral.Learn
	// InstallCPDs writes learned CPDs back into the network.
	InstallCPDs = decentral.Install
	// NewTCPFabric starts the TCP column-shipping relay.
	NewTCPFabric = decentral.NewTCPFabric
	// DefaultLearnOptions returns Laplace-smoothed learning.
	DefaultLearnOptions = learn.DefaultOptions
)

// Monitoring pipeline (Section 2): points → per-host agents → management
// server assembling per-request rows.
type (
	// MonitorAgent batches measurements on one host.
	MonitorAgent = monitor.Agent
	// MonitorServer joins measurements into complete data rows.
	MonitorServer = monitor.Server
	// MonitorPoint is one instrumentation point reporting to an agent.
	MonitorPoint = monitor.Point
	// Measurement is one monitoring-point observation.
	Measurement = monitor.Measurement
)

// Monitoring entry points.
var (
	// NewMonitorAgent creates a batching agent.
	NewMonitorAgent = monitor.NewAgent
	// NewMonitorServer creates the management server.
	NewMonitorServer = monitor.NewServer
	// ListenMonitorTCP exposes a server over TCP.
	ListenMonitorTCP = monitor.ListenTCP
	// DialMonitorTCP connects an agent-side sender.
	DialMonitorTCP = monitor.DialTCP
)

// Advanced inference and learning tools.
type (
	// DiscreteEvidence maps node id → observed state for exact inference.
	DiscreteEvidence = infer.DiscreteEvidence
	// SequentialUpdater folds observations into CPTs without forgetting —
	// the Section-2 updating scheme the Motivation experiment stress-tests.
	SequentialUpdater = learn.SequentialUpdater
)

// NewSequentialUpdaterSkip wraps a discrete network for count updating,
// leaving the given nodes fixed.
var NewSequentialUpdaterSkip = learn.NewSequentialUpdaterSkip

// Experiment harness re-exports: each function regenerates one figure of
// the paper's evaluation.
type (
	// FigResult is one reproduced figure's series.
	FigResult = experiments.FigResult
	// Fig3Config, Fig4Config, Fig5Config and EDiaMoNDConfig parameterize
	// the experiments.
	Fig3Config               = experiments.Fig3Config
	Fig4Config               = experiments.Fig4Config
	Fig5Config               = experiments.Fig5Config
	EDiaMoNDExperimentConfig = experiments.EDiaMoNDConfig
)

// Experiment entry points.
var (
	Fig3                    = experiments.Fig3
	Fig4                    = experiments.Fig4
	Fig5                    = experiments.Fig5
	Fig6                    = experiments.Fig6
	Fig7                    = experiments.Fig7
	Fig8                    = experiments.Fig8
	Motivation              = experiments.Motivation
	KnowledgeAblation       = experiments.KnowledgeAblation
	DefaultFig3Config       = experiments.DefaultFig3Config
	DefaultFig4Config       = experiments.DefaultFig4Config
	DefaultFig5Config       = experiments.DefaultFig5Config
	DefaultEDiaMoNDConfig   = experiments.DefaultEDiaMoNDConfig
	DefaultMotivationConfig = experiments.DefaultMotivationConfig
	// DefaultKnowledgeAblationConfig parameterizes the knowledge ablation.
	DefaultKnowledgeAblationConfig = experiments.DefaultKnowledgeAblationConfig
)

// KnowledgeAblationConfig parameterizes the which-knowledge-buys-what study.
type KnowledgeAblationConfig = experiments.KnowledgeAblationConfig

// MotivationConfig parameterizes the stale-data (update-vs-rebuild) study.
type MotivationConfig = experiments.MotivationConfig
