// Package cmdutil holds the plumbing shared by the cmd binaries: the
// common campaign flag block, emitting a metrics dump as text or JSON,
// and capturing CPU/heap profiles around a campaign body.
package cmdutil

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"rrdps/internal/core/report"
	"rrdps/internal/dnsresolver"
	"rrdps/internal/obs"
	"rrdps/internal/scenario"
)

// CampaignFlags is the flag block shared by cmd/dpsmeasure and
// cmd/rrscan — parallelism, snapshot retention, the retry policy knobs,
// observability output, and campaign durability. It used to be
// copy-pasted into both binaries, with the two help texts drifting
// apart; registering it here keeps the flags and their documentation
// identical.
type CampaignFlags struct {
	// Workers is the parallelism of every measurement loop.
	Workers int
	// SnapWindow is the snapshot-store retention bound.
	SnapWindow int
	// Retries / Hedge shape the retry policy (see Policy).
	Retries int
	Hedge   bool
	// Metrics / MetricsOut select the post-campaign observability dump.
	Metrics    string
	MetricsOut string
	// PprofPrefix enables CPU/heap profiles around the campaign body.
	PprofPrefix string
	// CheckpointDir / CheckpointEvery / Resume control campaign
	// durability (see internal/snapdisk).
	CheckpointDir   string
	CheckpointEvery int
	Resume          bool
	// Follow / MaxDays / FollowInterval control daemon mode: the campaign
	// keeps appending collection rounds past any configured horizon,
	// checkpointing on SIGTERM, so a `rrserve -follow` reader can tail
	// the checkpoint directory.
	Follow         bool
	MaxDays        int
	FollowInterval time.Duration
	// Scenario is a declarative spec file (see internal/scenario) that
	// replaces the experiment-shaping flags; ValidateOnly parses and
	// compiles it, prints its identity, and exits without running.
	Scenario     string
	ValidateOnly bool

	// fs is the flag set the block was registered on; conflict detection
	// walks it to find explicitly-set flags.
	fs *flag.FlagSet
	// scenarioOwned names the binary-specific flags a scenario spec
	// controls (see ScenarioOwns).
	scenarioOwned []string
}

// RegisterCampaignFlags registers the shared campaign flag block on fs.
// snapWindowHelp documents the binary's retention unit (days vs
// collection rounds); every other flag reads identically in both
// binaries.
func RegisterCampaignFlags(fs *flag.FlagSet, snapWindowHelp string) *CampaignFlags {
	f := &CampaignFlags{}
	fs.IntVar(&f.Workers, "workers", runtime.GOMAXPROCS(0), "parallelism of the measurement loops (1 = serial; findings are identical either way, query counts nearly so)")
	fs.IntVar(&f.SnapWindow, "snap-window", 0, snapWindowHelp)
	fs.IntVar(&f.Retries, "retries", 3, "attempts per query (1 = no retries); backoff and health sidelining follow the default policy")
	fs.BoolVar(&f.Hedge, "hedge", true, "hedge retried queries to an alternate nameserver when one is available")
	fs.StringVar(&f.Metrics, "metrics", "", "emit an observability dump after the campaign: text or json")
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "write the -metrics dump to this file instead of stdout")
	fs.StringVar(&f.PprofPrefix, "pprof", "", "write <prefix>.cpu.pprof, .heap.pprof, .mutex.pprof and .block.pprof profiles around the campaign body")
	fs.StringVar(&f.CheckpointDir, "checkpoint-dir", "", "directory for durable campaign state (checkpoints + write-ahead log); empty disables durability")
	fs.IntVar(&f.CheckpointEvery, "checkpoint-every", 7, "world days between full checkpoints (the write-ahead log covers the rounds in between)")
	fs.BoolVar(&f.Resume, "resume", false, "resume the campaign recorded in -checkpoint-dir instead of starting over (same seed and configuration required)")
	fs.BoolVar(&f.Follow, "follow", false, "daemon mode: keep appending collection rounds until SIGTERM (or -max-days), sealing each into -checkpoint-dir for rrserve -follow readers")
	fs.IntVar(&f.MaxDays, "max-days", 0, "with -follow: stop after this many appended collection rounds (0 = run until SIGTERM)")
	fs.DurationVar(&f.FollowInterval, "follow-interval", 0, "with -follow: pause between appended rounds (0 = append continuously)")
	fs.StringVar(&f.Scenario, "scenario", "", "run the campaign a declarative scenario spec describes (see scenarios/); mutually exclusive with the experiment-shaping flags")
	fs.BoolVar(&f.ValidateOnly, "validate-only", false, "with -scenario: parse, validate, and compile the spec, print its name and hash, and exit without running")
	f.fs = fs
	return f
}

// ScenarioOwns names the binary-specific experiment-shaping flags a
// scenario spec controls (e.g. "sites", "days", "seed"). When -scenario
// is given, Validate rejects any of these set explicitly on the command
// line: a spec describes the whole experiment, and a half-overridden
// spec would report a hash that doesn't match what actually ran. The
// shared policy flags -retries and -hedge are always owned; operational
// flags (workers, checkpointing, metrics, ...) stay available.
func (f *CampaignFlags) ScenarioOwns(names ...string) {
	f.scenarioOwned = append(f.scenarioOwned, names...)
}

// explicitlySet reports whether the named flag was set on the command
// line (as opposed to holding its default).
func (f *CampaignFlags) explicitlySet(name string) bool {
	if f.fs == nil {
		return false
	}
	set := false
	f.fs.Visit(func(fl *flag.Flag) {
		if fl.Name == name {
			set = true
		}
	})
	return set
}

// Validate checks the flag block's invariants, returning a usage error.
// Every combination a later stage would reject must fail here, before
// any campaign work starts: -metrics used to be checked only by
// EmitMetrics after the campaign finished, which discarded a multi-hour
// run's dump over a flag typo.
func (f *CampaignFlags) Validate() error {
	if f.Workers <= 0 || f.Retries <= 0 {
		return fmt.Errorf("-workers and -retries must be positive")
	}
	switch f.Metrics {
	case "", "text", "json":
	default:
		return fmt.Errorf("-metrics: unknown mode %q (want text or json)", f.Metrics)
	}
	if f.MetricsOut != "" && f.Metrics == "" {
		return fmt.Errorf("-metrics-out requires -metrics (text or json)")
	}
	if f.CheckpointEvery <= 0 {
		return fmt.Errorf("-checkpoint-every must be positive")
	}
	if f.Resume && f.CheckpointDir == "" {
		return fmt.Errorf("-resume requires -checkpoint-dir")
	}
	if f.Follow && f.CheckpointDir == "" {
		// Follow mode without a checkpoint directory would seal rounds
		// into thin air — no rrserve -follow reader could ever attach.
		return fmt.Errorf("-follow requires -checkpoint-dir (readers tail the sealed rounds there)")
	}
	if f.MaxDays < 0 {
		return fmt.Errorf("-max-days must not be negative (0 = run until SIGTERM)")
	}
	if f.MaxDays != 0 && !f.Follow {
		return fmt.Errorf("-max-days needs -follow")
	}
	if f.FollowInterval < 0 {
		return fmt.Errorf("-follow-interval must not be negative")
	}
	if f.FollowInterval != 0 && !f.Follow {
		return fmt.Errorf("-follow-interval needs -follow")
	}
	if f.ValidateOnly && f.Scenario == "" {
		return fmt.Errorf("-validate-only needs -scenario")
	}
	if f.Scenario != "" {
		// The spec owns the experiment shape; an explicitly-set owned flag
		// would silently disagree with the spec hash recorded in the
		// campaign's provenance. Fail naming both sides.
		for _, name := range append([]string{"retries", "hedge"}, f.scenarioOwned...) {
			if f.explicitlySet(name) {
				return fmt.Errorf("-scenario %s conflicts with explicit -%s: the scenario spec owns that knob (edit the spec instead)", f.Scenario, name)
			}
		}
		// Fail on an unreadable file now, at flag-validation time, not
		// after a world build.
		if _, err := os.Stat(f.Scenario); err != nil {
			return fmt.Errorf("-scenario: %w", err)
		}
	}
	return nil
}

// LoadScenario loads, compiles, and kind-checks the -scenario spec;
// wantKind is scenario.CampaignDynamics or scenario.CampaignResidual
// (the calling binary's campaign). It returns (nil, nil) when no
// scenario was requested. Spec-pinned Workers/SnapWindow land in the
// flag block unless the user explicitly set those flags — they are
// operational knobs, so a command-line override is allowed and wins.
func (f *CampaignFlags) LoadScenario(wantKind string) (*scenario.Compiled, error) {
	if f.Scenario == "" {
		return nil, nil
	}
	spec, err := scenario.Load(f.Scenario)
	if err != nil {
		return nil, err
	}
	comp := scenario.Compile(spec)
	if comp.Kind != wantKind {
		return nil, fmt.Errorf("%s: scenario %q is a %s campaign; this binary runs %s campaigns",
			f.Scenario, comp.Name(), comp.Kind, wantKind)
	}
	if comp.Workers > 0 && !f.explicitlySet("workers") {
		f.Workers = comp.Workers
	}
	if comp.SnapWindow > 0 && !f.explicitlySet("snap-window") {
		f.SnapWindow = comp.SnapWindow
	}
	return comp, nil
}

// Policy builds the retry policy the flag block describes.
func (f *CampaignFlags) Policy() dnsresolver.Policy {
	p := dnsresolver.DefaultPolicy()
	p.MaxAttempts = f.Retries
	p.Hedge = f.Hedge
	return p
}

// RenderMetrics renders a registry dump in the given mode ("text" or
// "json"). The lookup service's /metrics endpoint and EmitMetrics share
// this path so the two outputs cannot drift.
func RenderMetrics(r *obs.Registry, mode string) (string, error) {
	switch mode {
	case "text":
		return report.Observability(r.Dump()), nil
	case "json":
		raw, err := json.MarshalIndent(r.Dump(), "", "  ")
		if err != nil {
			return "", fmt.Errorf("metrics: %w", err)
		}
		return string(raw) + "\n", nil
	default:
		return "", fmt.Errorf("metrics: unknown mode %q (want text or json)", mode)
	}
}

// EmitMetrics writes a registry dump in the given mode ("text" or
// "json") to path, or to stdout when path is empty. An empty mode is a
// no-op, so callers can pass the -metrics flag value straight through.
func EmitMetrics(r *obs.Registry, mode, path string) error {
	if mode == "" {
		return nil
	}
	body, err := RenderMetrics(r, mode)
	if err != nil {
		return err
	}
	if path == "" {
		_, err := os.Stdout.WriteString(body)
		return err
	}
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	return nil
}

// createProfileFile creates a profile output file. A variable so the
// tests can substitute a writer whose Close fails — the full-disk case
// where the kernel reports the truncation only at close time.
var createProfileFile = func(path string) (io.WriteCloser, error) {
	return os.Create(path)
}

// StartProfiles begins a CPU profile at <prefix>.cpu.pprof and turns on
// the runtime's mutex and block profiling. It returns a stop function
// that ends the CPU profile and writes <prefix>.heap.pprof,
// <prefix>.mutex.pprof and <prefix>.block.pprof, then turns mutex and
// block profiling back off. An empty prefix disables profiling (the stop
// function is still non-nil and safe to call).
func StartProfiles(prefix string) (stop func() error, err error) {
	if prefix == "" {
		return func() error { return nil }, nil
	}
	cpu, err := createProfileFile(prefix + ".cpu.pprof")
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, fmt.Errorf("pprof: %w", err)
	}
	// Every contended unlock, and blocking sampled about once per
	// microsecond spent blocked: enough to rank the locks and waits of a
	// campaign without slowing the uncontended paths.
	prevMutex := runtime.SetMutexProfileFraction(1)
	runtime.SetBlockProfileRate(int(time.Microsecond))
	return func() error {
		pprof.StopCPUProfile()
		if err := cpu.Close(); err != nil {
			return fmt.Errorf("pprof: %w", err)
		}
		runtime.GC() // fresh allocation picture before the heap snapshot
		err := writeProfile(prefix+".heap.pprof", pprof.WriteHeapProfile)
		runtime.SetMutexProfileFraction(prevMutex)
		runtime.SetBlockProfileRate(0)
		for _, name := range []string{"mutex", "block"} {
			if err != nil {
				break
			}
			err = writeProfile(prefix+"."+name+".pprof", func(w io.Writer) error {
				return pprof.Lookup(name).WriteTo(w, 0)
			})
		}
		return err
	}, nil
}

// writeProfile creates path and writes one profile into it.
func writeProfile(path string, write func(io.Writer) error) error {
	f, err := createProfileFile(path)
	if err != nil {
		return fmt.Errorf("pprof: %w", err)
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("pprof: %w", err)
	}
	// Close errors matter here: on a full disk the write above can
	// "succeed" into the page cache and the truncation only surfaces at
	// close — reporting that as success hands the user a corrupt profile.
	if err := f.Close(); err != nil {
		return fmt.Errorf("pprof: %w", err)
	}
	return nil
}
