package cmdutil

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rrdps/internal/scenario"
)

// writeFile writes a test fixture or fails the test.
func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// paperBaseline is the library spec the success cases load.
var paperBaseline = filepath.Join("..", "..", "scenarios", "paper-baseline.json")

// parseScenario mimics dpsmeasure's full flag setup, then Parse+Validate.
func parseScenario(t *testing.T, args ...string) (*CampaignFlags, error) {
	t.Helper()
	return parseKind(t, scenario.CampaignDynamics, args...)
}

// parseKind registers a kind's flag block, parses args, and validates.
func parseKind(t *testing.T, kind string, args ...string) (*CampaignFlags, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(&strings.Builder{})
	f := RegisterCampaignFlags(fs, kind)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("flag parse: %v", err)
	}
	return f, f.Validate()
}

// TestScenarioFlagValidation is the fail-fast table: every bad -scenario
// combination must die at flag validation, before any world build.
func TestScenarioFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // empty = must validate; substrings joined by "&&"
	}{
		{name: "scenario-alone", args: []string{"-scenario", paperBaseline}},
		{name: "scenario-validate-only", args: []string{"-scenario", paperBaseline, "-validate-only"}},
		// Operational flags stay compatible with -scenario.
		{name: "scenario-with-ops-flags", args: []string{
			"-scenario", paperBaseline, "-workers", "2", "-metrics", "text",
			"-checkpoint-dir", "ckpt", "-checkpoint-every", "3"}},

		{name: "validate-only-without-scenario", args: []string{"-validate-only"},
			wantErr: "-validate-only needs -scenario"},
		// The conflict error must name both the scenario file and the flag.
		{name: "scenario-plus-owned-flag", args: []string{"-scenario", paperBaseline, "-sites", "500"},
			wantErr: "paper-baseline.json && -sites && the scenario spec owns that knob"},
		{name: "scenario-plus-churn-boost", args: []string{"-scenario", paperBaseline, "-churn-boost", "2"},
			wantErr: "paper-baseline.json && -churn-boost"},
		{name: "scenario-plus-retries", args: []string{"-scenario", paperBaseline, "-retries", "5"},
			wantErr: "paper-baseline.json && -retries"},
		{name: "scenario-plus-hedge", args: []string{"-scenario", paperBaseline, "-hedge=false"},
			wantErr: "-hedge"},
		{name: "missing-file", args: []string{"-scenario", "no/such/spec.json"},
			wantErr: "-scenario: && no/such/spec.json"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseScenario(t, tc.args...)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", tc.wantErr)
			}
			for _, want := range strings.Split(tc.wantErr, " && ") {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("Validate() = %q, want it to contain %q", err, want)
				}
			}
		})
	}
}

// TestLoadScenarioKindCheck pins the cross-binary guard: a dynamics spec
// handed to the residual binary (or vice versa) must fail at Compile
// with an error naming both kinds.
func TestLoadScenarioKindCheck(t *testing.T) {
	res, err := parseKind(t, scenario.CampaignResidual, "-scenario", paperBaseline)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Compile(); err == nil ||
		!strings.Contains(err.Error(), "dynamics campaign") {
		t.Errorf("residual Compile of a dynamics spec = %v, want kind mismatch", err)
	}
	f, err := parseScenario(t, "-scenario", paperBaseline)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := f.Compile()
	if err != nil {
		t.Fatalf("dynamics Compile: %v", err)
	}
	if comp.Name() != "paper-baseline" {
		t.Errorf("loaded scenario %q, want paper-baseline", comp.Name())
	}
}

// TestLoadScenarioWorkersPrecedence pins the operational-override rule:
// a spec-pinned Workers lands in the flag block, but an explicit
// -workers on the command line wins (it is an ops knob; for scenarios
// that pin workers for determinism the results are on the user).
func TestLoadScenarioWorkersPrecedence(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "pinned.json")
	writeFile(t, spec, `{
  "apiVersion": "rrdps/v1",
  "kind": "Scenario",
  "metadata": { "name": "pinned" },
  "campaign": { "kind": "dynamics", "workers": 1, "snapWindow": 9 }
}`)

	f, err := parseScenario(t, "-scenario", spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Compile(); err != nil {
		t.Fatal(err)
	}
	if f.Workers != 1 || f.SnapWindow != 9 {
		t.Errorf("spec-pinned workers/snapWindow not applied: %d/%d", f.Workers, f.SnapWindow)
	}

	f, err = parseScenario(t, "-scenario", spec, "-workers", "6")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Compile(); err != nil {
		t.Fatal(err)
	}
	if f.Workers != 6 {
		t.Errorf("explicit -workers overridden by spec: got %d, want 6", f.Workers)
	}
	if f.SnapWindow != 9 {
		t.Errorf("spec snapWindow should still apply: got %d", f.SnapWindow)
	}
}

// TestLoadScenarioWithoutScenario is the path every flag-driven run
// takes: Compile lowers the shaping flags and attaches no provenance,
// so the run's checkpoints carry no scenario.
func TestLoadScenarioWithoutScenario(t *testing.T) {
	f, err := parseKind(t, scenario.CampaignResidual, "-sites", "300", "-weeks", "2", "-warmup", "7", "-incapsula-start", "2")
	if err != nil {
		t.Fatal(err)
	}
	comp, err := f.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if comp.Info != nil || comp.Spec != nil {
		t.Errorf("lowered flags carry provenance: %+v", comp.Info)
	}
	if comp.World.NumSites != 300 || comp.Weeks != 2 || comp.WarmupDays != 7 || comp.IncapsulaStartWeek != 2 {
		t.Errorf("shaping flags not lowered: sites %d weeks %d warmup %d incapsula %d",
			comp.World.NumSites, comp.Weeks, comp.WarmupDays, comp.IncapsulaStartWeek)
	}
}

// TestCompileRejectsBadShapeFlags pins that the shaping flags get the
// spec validator's checks, and that a zero size is an error rather than
// the default a spec file's absent field takes. Every case fails before
// a world is built.
func TestCompileRejectsBadShapeFlags(t *testing.T) {
	dyn, res := scenario.CampaignDynamics, scenario.CampaignResidual
	cases := []struct {
		kind    string
		args    []string
		wantErr string
	}{
		{res, []string{"-warmup", "-1"}, "warmupDays must not be negative"},
		{res, []string{"-incapsula-start", "3", "-weeks", "2"}, "incapsulaStartWeek 3 outside [0, weeks=2]"},
		{dyn, []string{"-sites", "0"}, "sites, the campaign horizon and retries must be positive"},
		{res, []string{"-sites", "-5"}, "campaign.sites must be positive"},
		{dyn, []string{"-days", "0"}, "sites, the campaign horizon and retries must be positive"},
		{res, []string{"-weeks", "0"}, "sites, the campaign horizon and retries must be positive"},
		{dyn, []string{"-churn-boost", "0"}, "churnBoost must be positive"},
		{res, []string{"-churn-boost", "0"}, "churnBoost must be positive"},
		{res, []string{"-retries", "0"}, "-workers and -retries must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.kind+" "+strings.Join(tc.args, " "), func(t *testing.T) {
			f, err := parseKind(t, tc.kind, tc.args...)
			if err == nil {
				_, err = f.Compile()
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s %v: error %v, want it to contain %q", tc.kind, tc.args, err, tc.wantErr)
			}
		})
	}
}
