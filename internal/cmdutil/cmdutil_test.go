package cmdutil

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"rrdps/internal/obs"
	"rrdps/internal/scenario"
)

// parse registers the shared flag block on a throwaway FlagSet, parses
// args, and validates — the exact path both binaries run before any
// campaign work starts, so a bad combination must fail here, fast,
// not an hour into a run.
func parse(t *testing.T, args ...string) (*CampaignFlags, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(&strings.Builder{}) // silence usage spam on bad flags
	f := RegisterCampaignFlags(fs, scenario.CampaignDynamics)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("flag parse: %v", err)
	}
	return f, f.Validate()
}

func TestCampaignFlagsValidate(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // empty = must validate
	}{
		{name: "defaults", args: nil},
		{name: "resume-with-dir", args: []string{"-resume", "-checkpoint-dir", "ckpt"}},

		{name: "metrics-text", args: []string{"-metrics", "text"}},
		{name: "metrics-json-to-file", args: []string{"-metrics", "json", "-metrics-out", "dump.json"}},

		{name: "follow", args: []string{"-follow", "-checkpoint-dir", "ckpt"}},
		{name: "follow-bounded", args: []string{"-follow", "-checkpoint-dir", "ckpt", "-max-days", "3"}},
		{name: "follow-throttled", args: []string{"-follow", "-checkpoint-dir", "ckpt", "-follow-interval", "5s"}},
		{name: "follow-resume", args: []string{"-follow", "-resume", "-checkpoint-dir", "ckpt"}},

		{name: "resume-without-dir", args: []string{"-resume"}, wantErr: "-resume requires -checkpoint-dir"},
		{name: "zero-workers", args: []string{"-workers", "0"}, wantErr: "-workers and -retries must be positive"},
		{name: "zero-retries", args: []string{"-retries", "0"}, wantErr: "-workers and -retries must be positive"},
		{name: "zero-checkpoint-every", args: []string{"-checkpoint-every", "0"}, wantErr: "-checkpoint-every must be positive"},
		{name: "bad-metrics-mode", args: []string{"-metrics", "yaml"}, wantErr: `-metrics: unknown mode "yaml"`},
		{name: "metrics-out-without-metrics", args: []string{"-metrics-out", "dump.json"}, wantErr: "-metrics-out requires -metrics"},

		// Daemon-mode combinations a later stage would only reject after
		// hours of campaign work — all must fail at flag validation.
		{name: "follow-without-dir", args: []string{"-follow"}, wantErr: "-follow requires -checkpoint-dir"},
		{name: "negative-max-days", args: []string{"-follow", "-checkpoint-dir", "ckpt", "-max-days", "-1"}, wantErr: "-max-days must not be negative"},
		{name: "max-days-without-follow", args: []string{"-max-days", "3"}, wantErr: "-max-days needs -follow"},
		{name: "negative-follow-interval", args: []string{"-follow", "-checkpoint-dir", "ckpt", "-follow-interval", "-1s"}, wantErr: "-follow-interval must not be negative"},
		{name: "follow-interval-without-follow", args: []string{"-follow-interval", "5s"}, wantErr: "-follow-interval needs -follow"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parse(t, tc.args...)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %q, want it to contain %q", err, tc.wantErr)
			}
		})
	}
}

func TestCampaignFlagsDefaults(t *testing.T) {
	f, err := parse(t)
	if err != nil {
		t.Fatal(err)
	}
	if f.Resolver.Retries != 3 || !*f.Resolver.Hedge {
		t.Errorf("default policy knobs = retries %d hedge %v, want 3 true", f.Resolver.Retries, *f.Resolver.Hedge)
	}
	if f.CheckpointEvery != 7 {
		t.Errorf("default -checkpoint-every = %d, want 7", f.CheckpointEvery)
	}
}

func TestCampaignFlagsPolicy(t *testing.T) {
	f, err := parse(t, "-retries", "5", "-hedge=false")
	if err != nil {
		t.Fatal(err)
	}
	comp, err := f.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if p := comp.Policy; p.MaxAttempts != 5 || p.Hedge {
		t.Fatalf("compiled policy = attempts %d hedge %v, want 5 false", p.MaxAttempts, p.Hedge)
	}
}

// TestInvalidMetricsModeFailsAtValidate is the regression test for the
// late-failure bug: an invalid -metrics mode must fail at
// flag-validation time. The second half documents the old failure
// point — EmitMetrics, which runs only AFTER the campaign — still
// rejects the mode, so before the Validate check the first error a user
// saw cost them the whole run.
func TestInvalidMetricsModeFailsAtValidate(t *testing.T) {
	_, err := parse(t, "-metrics", "yaml")
	if err == nil {
		t.Fatal("Validate accepted -metrics yaml; the error would surface only after the campaign")
	}
	if err := EmitMetrics(obs.NewRegistry(), "yaml", ""); err == nil {
		t.Fatal("EmitMetrics accepted mode yaml")
	}
}

// failingWriter accepts writes but fails Close — the profile-file shape
// of a full disk, where the data sits in the page cache and the error
// only surfaces when the file is flushed at close.
type failingWriter struct{ closeErr error }

func (w *failingWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *failingWriter) Close() error                { return w.closeErr }

// TestStopProfilesPropagatesHeapCloseError: StartProfiles' stop function
// used to discard the heap profile's Close error via defer, reporting a
// truncated profile as success.
func TestStopProfilesPropagatesHeapCloseError(t *testing.T) {
	closeErr := errors.New("disk full at close")
	orig := createProfileFile
	defer func() { createProfileFile = orig }()
	createProfileFile = func(path string) (io.WriteCloser, error) {
		if strings.Contains(path, ".heap.") {
			return &failingWriter{closeErr: closeErr}, nil
		}
		return &failingWriter{}, nil
	}

	stop, err := StartProfiles("prefix")
	if err != nil {
		t.Fatal(err)
	}
	err = stop()
	if err == nil {
		t.Fatal("stop() = nil, want the heap profile's close error")
	}
	if !errors.Is(err, closeErr) {
		t.Fatalf("stop() = %v, want it to wrap %v", err, closeErr)
	}
}

// TestStartProfilesWritesAllFour: -pprof writes the CPU, heap, mutex and
// block profiles, each non-empty, and leaves mutex profiling off again.
func TestStartProfilesWritesAllFour(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "run")
	stop, err := StartProfiles(prefix)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"cpu", "heap", "mutex", "block"} {
		path := prefix + "." + kind + ".pprof"
		fi, err := os.Stat(path)
		if err != nil {
			t.Errorf("%s profile: %v", kind, err)
			continue
		}
		if fi.Size() == 0 {
			t.Errorf("%s profile %s is empty", kind, path)
		}
	}
	if got := runtime.SetMutexProfileFraction(-1); got != 0 {
		t.Errorf("mutex profile fraction %d after stop, want 0", got)
	}
}

// TestRunFollow pins the daemon loop's three exits: -max-days, a signal
// already pending before the first round, and a signal that lands
// during the -follow-interval wait. Each drains with exactly one
// checkpoint, after the last round.
func TestRunFollow(t *testing.T) {
	for _, tc := range []struct {
		name      string
		maxDays   int
		interval  time.Duration
		pending   bool // a signal is queued before the loop starts
		midWait   bool // the first round raises a signal a moment later
		wantSteps int
	}{
		{name: "max-days", maxDays: 3, wantSteps: 3},
		{name: "pending signal", pending: true, wantSteps: 0},
		{name: "signal during wait", interval: time.Hour, midWait: true, wantSteps: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := &CampaignFlags{Follow: true, MaxDays: tc.maxDays, FollowInterval: tc.interval}
			sig := make(chan os.Signal, 1)
			if tc.pending {
				sig <- syscall.SIGTERM
			}
			var events []string
			step := func() {
				events = append(events, "step")
				if tc.midWait {
					go func() {
						time.Sleep(20 * time.Millisecond)
						sig <- syscall.SIGTERM
					}()
				}
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				f.RunFollow("test", sig, step, func() { events = append(events, "checkpoint") })
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("RunFollow did not drain")
			}
			var want []string
			for i := 0; i < tc.wantSteps; i++ {
				want = append(want, "step")
			}
			want = append(want, "checkpoint")
			if !slices.Equal(events, want) {
				t.Fatalf("events %v, want %v", events, want)
			}
		})
	}
}
