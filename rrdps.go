package rrdps

import (
	"rrdps/internal/core/collect"
	"rrdps/internal/core/experiment"
	"rrdps/internal/core/report"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/dps"
	"rrdps/internal/netsim"
	"rrdps/internal/obs"
	"rrdps/internal/scenario"
	"rrdps/internal/snapstore"
	"rrdps/internal/world"
)

// This file is the library's public API: a curated facade over the
// internal packages. Downstream users build a World, run the campaign
// runners, and render reports — the same workflow the cmd/ binaries and
// examples/ follow. A name stays here only while an Example or a test of
// this package shows it in use.

// ---------------------------------------------------------------------------
// World construction.

// Config parametrizes a simulated Internet; see PaperConfig for the
// calibrated defaults.
type Config = world.Config

// World is a fully wired simulated Internet: DNS backbone, the eleven
// Table II providers, a hosting service, and a ranked website population.
type World = world.World

// PaperConfig returns a configuration calibrated to the paper's reported
// aggregates for a population of numSites.
func PaperConfig(numSites int) Config { return world.PaperConfig(numSites) }

// NewWorld builds a world; identical configs build identical worlds.
func NewWorld(cfg Config) *World { return world.New(cfg) }

// ---------------------------------------------------------------------------
// Campaign runners (the paper's experiments).

// Dynamics runs the §IV usage-dynamics campaign (Figs. 2/3/5/6, Table V).
type Dynamics = experiment.Dynamics

// DynamicsResult carries the §IV campaign outputs.
type DynamicsResult = experiment.DynamicsResult

// Residual runs the §V residual-resolution campaign (Table VI, Fig. 9).
type Residual = experiment.Residual

// PurgeTrial replicates the §V-A.3 controlled purge experiment.
type PurgeTrial = experiment.PurgeTrial

// ---------------------------------------------------------------------------
// Scenario specs (declarative campaign configuration).

// LoadScenario reads, parses, validates, and canonicalizes a scenario
// spec file (rrdps/v1).
var LoadScenario = scenario.Load

// CompileScenario lowers a validated spec onto the runtime configuration
// types. Compilation is infallible: every failure mode is caught by
// validation at parse time.
var CompileScenario = scenario.Compile

// ---------------------------------------------------------------------------
// Collection into the snapshot store.

// NewCollector builds a collector that takes daily A/CNAME/NS snapshots
// over a resolver and domain list.
var NewCollector = collect.New

// NewSnapshotStore builds an empty snapshot store with unbounded
// retention: the append-only, delta-encoded, name-interned store the
// campaign runners stream each collection day into and read back through
// cursors and sealed views.
var NewSnapshotStore = snapstore.New

// ---------------------------------------------------------------------------
// Providers and DNS names.

// Provider profile keys of the two providers whose policy leaves residual
// records behind.
const (
	Cloudflare = dps.Cloudflare
	Incapsula  = dps.Incapsula
)

// ReroutingNS is the NS-based rerouting mechanism (§II-A.2).
const ReroutingNS = dps.ReroutingNS

// PlanFree is the free DPS plan (free plans purge residual records
// sooner).
const PlanFree = dps.PlanFree

// Profile is a provider's static Table II description.
type Profile = dps.Profile

// Profiles returns the eleven Table II provider profiles.
func Profiles() []Profile { return dps.Profiles() }

// Name is a normalized DNS name.
type Name = dnsmsg.Name

// ParseName validates and normalizes a domain name.
var ParseName = dnsmsg.ParseName

// VantageRegions returns the paper's five measurement vantage points.
var VantageRegions = netsim.VantageRegions

// ---------------------------------------------------------------------------
// Observability.

// NewMetricsRegistry builds an empty metrics registry. Pass one via
// Dynamics.Obs / Residual.Obs; a nil registry disables all
// instrumentation at zero cost.
var NewMetricsRegistry = obs.NewRegistry

// ---------------------------------------------------------------------------
// Reporting.

// Report renderers for the tables and figures (text and CSV forms).
var (
	RenderTableII = report.TableII
	RenderFigure2 = report.Figure2
	RenderFigure3 = report.Figure3
	RenderFigure5 = report.Figure5
	RenderFigure6 = report.Figure6
	RenderTableV  = report.TableV
	RenderTableVI = report.TableVI
	TableVCSV     = report.TableVCSV
	TableVICSV    = report.TableVICSV

	RenderObservability = report.Observability
)
