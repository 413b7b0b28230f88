package scenario_test

import (
	"flag"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rrdps/internal/cmdutil"
	"rrdps/internal/core/experiment"
	"rrdps/internal/core/report"
	"rrdps/internal/scenario"
	"rrdps/internal/world"
)

// These tests hold scenario ≡ flags on the binaries' own flag path:
// each side is what cmdutil compiles, from a spec on one side and from
// command-line flags on the other.

// lowerFlags compiles a campaign kind's flag block from args, the way
// dpsmeasure (dynamics) or rrscan (residual) does.
func lowerFlags(t *testing.T, kind string, args ...string) *scenario.Compiled {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	cf := cmdutil.RegisterCampaignFlags(fs, kind)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	comp, err := cf.Compile()
	if err != nil {
		t.Fatalf("compiling %s flags %v: %v", kind, args, err)
	}
	return comp
}

// parseSpec parses an in-memory spec document and compiles it.
func parseSpec(t *testing.T, doc string) *scenario.Compiled {
	t.Helper()
	spec, err := scenario.Parse("", []byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return scenario.Compile(spec)
}

// TestCompilePaperBaselineMatchesFlagDefaults pins the acceptance
// criterion at the config level: compiling scenarios/paper-baseline.json
// must yield exactly the configs a default flag-driven dpsmeasure run
// compiles — world, retry policy and the 42-day horizon — and add only
// provenance.
func TestCompilePaperBaselineMatchesFlagDefaults(t *testing.T) {
	spec, err := scenario.Load(filepath.Join("..", "..", "scenarios", "paper-baseline.json"))
	if err != nil {
		t.Fatalf("loading paper-baseline: %v", err)
	}
	comp := scenario.Compile(spec)
	flags := lowerFlags(t, scenario.CampaignDynamics)

	if !reflect.DeepEqual(comp.World, flags.World) {
		t.Errorf("compiled world config differs from flag-driven default:\ngot  %+v\nwant %+v", comp.World, flags.World)
	}
	if comp.World.NumSites != 2000 || comp.World.Seed != 1815 {
		t.Errorf("paper-baseline world = %d sites seed %d, want 2000 / 1815", comp.World.NumSites, comp.World.Seed)
	}
	if comp.Policy != flags.Policy {
		t.Errorf("compiled policy %+v, want %+v", comp.Policy, flags.Policy)
	}
	if comp.Kind != scenario.CampaignDynamics || comp.Days != 42 || flags.Days != 42 {
		t.Errorf("kind/days = %q/%d (flags %d), want dynamics/42", comp.Kind, comp.Days, flags.Days)
	}
	if comp.Workers != 0 || comp.SnapWindow != 0 {
		t.Errorf("paper-baseline must leave workers/snapWindow to the binary (got %d/%d)", comp.Workers, comp.SnapWindow)
	}
	if comp.Attack != nil {
		t.Error("paper-baseline must not configure an attack")
	}
	if comp.Info == nil || comp.Info.Name != "paper-baseline" || comp.Info.Hash != spec.Hash {
		t.Errorf("provenance info %+v not wired", comp.Info)
	}
	if flags.Info != nil {
		t.Errorf("flag-driven run carries provenance %+v", flags.Info)
	}
}

// TestScenarioRunByteIdenticalToFlagRun is the report-level half of the
// acceptance criterion, scaled down so it can run under -race: a
// dynamics campaign compiled from a spec document renders the exact
// same report, byte for byte, as one compiled from dpsmeasure's flags.
func TestScenarioRunByteIdenticalToFlagRun(t *testing.T) {
	render := func(comp *scenario.Compiled) string {
		res := experiment.Dynamics{
			World:    world.New(comp.World),
			Days:     comp.Days,
			Workers:  4,
			Policy:   &comp.Policy,
			Scenario: comp.Info,
		}.Run()
		var b strings.Builder
		b.WriteString(res.String())
		b.WriteString(report.Figure2(res))
		b.WriteString(report.Figure3(res))
		b.WriteString(report.Figure5(res))
		b.WriteString(report.Figure6(res))
		b.WriteString(report.TableV(res))
		return b.String()
	}

	flagReport := render(lowerFlags(t, scenario.CampaignDynamics, "-sites", "150", "-days", "8"))
	scenarioReport := render(parseSpec(t, `{
  "apiVersion": "rrdps/v1",
  "kind": "Scenario",
  "metadata": { "name": "baseline-mini" },
  "campaign": { "kind": "dynamics", "sites": 150, "seed": 1815, "days": 8, "churnBoost": 1 }
}`))
	if scenarioReport != flagReport {
		t.Errorf("scenario-driven report differs from flag-driven report:\n--- flags\n%s\n--- scenario\n%s", flagReport, scenarioReport)
	}
}

// TestResidualScenarioRunByteIdenticalToFlagRun is the residual twin: a
// spec that states only sizes renders the same Table VI and Fig. 9 as
// rrscan's flags at those sizes, its default seed, boost and retry
// policy included.
func TestResidualScenarioRunByteIdenticalToFlagRun(t *testing.T) {
	render := func(comp *scenario.Compiled) string {
		res := experiment.Residual{
			World:              world.New(comp.World),
			Weeks:              comp.Weeks,
			WarmupDays:         comp.WarmupDays,
			IncapsulaStartWeek: comp.IncapsulaStartWeek,
			Workers:            1,
			Policy:             &comp.Policy,
			Scenario:           comp.Info,
		}.Run()
		return res.String() + report.TableVI(res) + report.Figure9(res)
	}

	flagReport := render(lowerFlags(t, scenario.CampaignResidual, "-sites", "250", "-weeks", "3", "-warmup", "21"))
	scenarioReport := render(parseSpec(t, `{
  "apiVersion": "rrdps/v1",
  "kind": "Scenario",
  "metadata": { "name": "residual-mini" },
  "campaign": { "kind": "residual", "sites": 250, "weeks": 3, "warmupDays": 21 }
}`))
	if strings.Contains(flagReport, "cloudflare 0 hidden") {
		t.Fatalf("the comparison needs a world that yields hidden records:\n%s", flagReport)
	}
	if scenarioReport != flagReport {
		t.Errorf("scenario-driven report differs from flag-driven report:\n--- flags\n%s\n--- scenario\n%s", flagReport, scenarioReport)
	}
}
