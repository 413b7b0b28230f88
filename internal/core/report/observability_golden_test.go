package report

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rrdps/internal/core/experiment"
	"rrdps/internal/obs"
	"rrdps/internal/world"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenDump runs a small seeded campaign and normalizes the resulting
// observability dump so the rendered output is byte-stable: volatile
// (scheduling-sensitive) metrics are stripped, wall-clock phase durations
// are pinned to one second per phase, and the raw event ring is dropped.
func goldenDump(t *testing.T) obs.Dump {
	t.Helper()
	cfg := world.PaperConfig(300)
	cfg.Seed = 83
	cfg.JoinRate = 0.01
	cfg.LeaveRate = 0.02
	cfg.PauseRate = 0.04

	reg := obs.NewRegistry()
	experiment.Dynamics{World: world.New(cfg), Days: 4, Obs: reg}.Run()

	d := reg.Dump()
	d.Snapshot = d.Snapshot.Deterministic()
	for i := range d.Phases {
		d.Phases[i].Elapsed = time.Second
	}
	d.Events = nil
	return d
}

// checkGolden compares got against testdata/<name>, rewriting the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test ./internal/core/report -run Golden -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from its golden file.\n--- got ---\n%s\n--- want ---\n%s\nIf the change is intended, regenerate with -update.",
			name, got, want)
	}
}

// TestObservabilityGolden pins the -metrics text renderer's exact output
// for a seeded campaign, so renderer drift shows up in review instead of
// in EXPERIMENTS runs.
func TestObservabilityGolden(t *testing.T) {
	checkGolden(t, "observability.txt", Observability(goldenDump(t)))
}
