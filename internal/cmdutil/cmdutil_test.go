package cmdutil

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"rrdps/internal/obs"
)

// parse registers the shared flag block on a throwaway FlagSet, parses
// args, and validates — the exact path both binaries run before any
// campaign work starts, so a bad combination must fail here, fast,
// not an hour into a run.
func parse(t *testing.T, args ...string) (*CampaignFlags, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(&strings.Builder{}) // silence usage spam on bad flags
	f := RegisterCampaignFlags(fs, "retention help")
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
		{name: "sharded", args: []string{"-shards", "8", "-shard-workers", "2"}},
		{name: "sharded-all-at-once", args: []string{"-shards", "4", "-shard-workers", "0"}},
		{name: "resume-with-dir", args: []string{"-resume", "-checkpoint-dir", "ckpt"}},
		{name: "sharded-resume", args: []string{"-shards", "4", "-resume", "-checkpoint-dir", "ckpt"}},

		{name: "metrics-text", args: []string{"-metrics", "text"}},
		{name: "metrics-json-to-file", args: []string{"-metrics", "json", "-metrics-out", "dump.json"}},

		{name: "legacy", args: []string{"-legacy"}},
		{name: "follow", args: []string{"-follow", "-checkpoint-dir", "ckpt"}},
		{name: "follow-bounded", args: []string{"-follow", "-checkpoint-dir", "ckpt", "-max-days", "3"}},
		{name: "follow-throttled", args: []string{"-follow", "-checkpoint-dir", "ckpt", "-follow-interval", "5s"}},
		{name: "follow-resume", args: []string{"-follow", "-resume", "-checkpoint-dir", "ckpt"}},

		{name: "resume-without-dir", args: []string{"-resume"}, wantErr: "-resume requires -checkpoint-dir"},
		{name: "zero-shards", args: []string{"-shards", "0"}, wantErr: "-shards must be at least 1"},
		{name: "negative-shards", args: []string{"-shards", "-2"}, wantErr: "-shards must be at least 1"},
		{name: "negative-shard-workers", args: []string{"-shard-workers", "-1"}, wantErr: "-shard-workers must not be negative"},
		{name: "zero-workers", args: []string{"-workers", "0"}, wantErr: "-workers and -retries must be positive"},
		{name: "zero-retries", args: []string{"-retries", "0"}, wantErr: "-workers and -retries must be positive"},
		{name: "zero-checkpoint-every", args: []string{"-checkpoint-every", "0"}, wantErr: "-checkpoint-every must be positive"},
		{name: "bad-metrics-mode", args: []string{"-metrics", "yaml"}, wantErr: `-metrics: unknown mode "yaml"`},
		{name: "metrics-out-without-metrics", args: []string{"-metrics-out", "dump.json"}, wantErr: "-metrics-out requires -metrics"},
		{name: "shard-workers-unsharded", args: []string{"-shard-workers", "8"}, wantErr: "-shard-workers needs -shards > 1"},

		// Daemon-mode combinations a later stage would only reject after
		// hours of campaign work — all must fail at flag validation.
		{name: "legacy-checkpoint", args: []string{"-legacy", "-checkpoint-dir", "ckpt"}, wantErr: "-legacy is incompatible with -checkpoint-dir"},
		{name: "legacy-sharded", args: []string{"-legacy", "-shards", "2"}, wantErr: "-legacy is incompatible with -shards > 1"},
		{name: "legacy-follow", args: []string{"-legacy", "-follow"}, wantErr: "-follow is incompatible with -legacy"},
		{name: "follow-without-dir", args: []string{"-follow"}, wantErr: "-follow requires -checkpoint-dir"},
		{name: "follow-sharded", args: []string{"-follow", "-checkpoint-dir", "ckpt", "-shards", "2"}, wantErr: "-follow is incompatible with -shards > 1"},
		{name: "negative-max-days", args: []string{"-follow", "-checkpoint-dir", "ckpt", "-max-days", "-1"}, wantErr: "-max-days must be at least 1"},
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
	if f.Shards != 1 {
		t.Errorf("default -shards = %d, want 1 (unsharded)", f.Shards)
	}
	if f.ShardWorkers != 0 {
		t.Errorf("default -shard-workers = %d, want 0 (all at once)", f.ShardWorkers)
	}
	if f.Retries != 3 || !f.Hedge {
		t.Errorf("default policy knobs = retries %d hedge %v, want 3 true", f.Retries, f.Hedge)
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
	p := f.Policy()
	if p.MaxAttempts != 5 || p.Hedge {
		t.Fatalf("Policy() = attempts %d hedge %v, want 5 false", p.MaxAttempts, p.Hedge)
	}
}

// TestShardWorkersClampedToShards: more worker slots than shards is a
// likely flag transposition, not an error — Validate clamps it so the
// run behaves as if -shard-workers equaled -shards.
func TestShardWorkersClampedToShards(t *testing.T) {
	f, err := parse(t, "-shards", "4", "-shard-workers", "16")
	if err != nil {
		t.Fatalf("Validate() = %v, want clamp, not error", err)
	}
	if f.ShardWorkers != 4 {
		t.Fatalf("ShardWorkers = %d after Validate, want clamped to 4", f.ShardWorkers)
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
