package experiment

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rrdps/internal/snapdisk"
)

// fullResidualCursor is the residual cursor as one json.Marshal of the
// whole struct: the encoding ResidualEngine.cursor must reproduce byte
// for byte while encoding each finished week only once.
func fullResidualCursor(en *ResidualEngine) []byte {
	cur := en.cursorFields()
	cur.Cloudflare, cur.Incapsula = en.res.Cloudflare, en.res.Incapsula
	cur.CFExposure, cur.IncExposure = exportWeeks(en.res.CFExposure), exportWeeks(en.res.IncExposure)
	return encodeCursor(cur)
}

// TestResidualCursorMatchesFullEncoding compares the spliced cursor of
// every warm-up and scan round with the full encoding: on a fresh
// engine, on a resumed one (whose week cache starts empty), and with a
// late Incapsula start, whose list stays null for the first weeks.
func TestResidualCursorMatchesFullEncoding(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      resCfg
		killFrom int // rounds run before a resume; 0 runs fresh
	}{
		{"fresh", resCfg{sites: 300, seed: 9021, weeks: 3, warmup: 14, every: 7}, 0},
		{"resumed", resCfg{sites: 300, seed: 9021, weeks: 3, warmup: 14, every: 7}, 3},
		{"incapsula-start-3", resCfg{sites: 300, seed: 9023, weeks: 4, warmup: 7, incStart: 3, every: 7}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if tc.killFrom > 0 {
				tc.cfg.build(dir, false, tc.killFrom).Run()
			}
			r := tc.cfg.build(dir, tc.killFrom > 0, 0)
			en := r.NewEngine()
			defer en.Close()
			if got, want := en.cursor(), fullResidualCursor(en); !bytes.Equal(got, want) {
				t.Fatalf("cursor before the first round differs from the full encoding:\n%s\nvs\n%s", got, want)
			}
			seals, nullInc := 0, 0
			for en.InWarmup() || en.NextWeek() <= r.Weeks {
				en.AppendRound()
				seals++
				// The footer is the cursor the round sealed into the
				// checkpoint or WAL.
				blob := en.log.footer
				if want := fullResidualCursor(en); !bytes.Equal(blob, want) {
					t.Fatalf("seal %d: spliced cursor differs from the full encoding:\n%s\nvs\n%s", seals, blob, want)
				}
				if bytes.Contains(blob, []byte(`"incapsula":null`)) {
					nullInc++
				}
			}
			if want := tc.cfg.rounds() - tc.killFrom; seals != want {
				t.Fatalf("%d seals, want %d", seals, want)
			}
			if tc.cfg.incStart > 1 && nullInc == 0 {
				t.Fatal("no round sealed a null incapsula list before the Incapsula start week")
			}
		})
	}
}

// walSize returns the size of the campaign directory's WAL file.
func walSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestCheckpointRoundLeavesWALAtHeader pins the one durable write per
// round: at the default cadence every residual round checkpoints, and
// its records never reach the WAL, which stays at its 8-byte header.
func TestCheckpointRoundLeavesWALAtHeader(t *testing.T) {
	dir := t.TempDir()
	cfg := resCfg{sites: 300, seed: 9025, weeks: 2, warmup: 14}
	en := cfg.build(dir, false, 0).NewEngine()
	defer en.Close()
	d, err := snapdisk.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; en.InWarmup() || en.NextWeek() <= cfg.weeks; round++ {
		en.AppendRound()
		if got := walSize(t, dir); got != 8 {
			t.Fatalf("round %d: wal.log is %d bytes, want its 8-byte header", round, got)
		}
		if _, _, label, ok, err := d.LatestCheckpoint(); err != nil || !ok || label != en.WorldDay() {
			t.Fatalf("round %d: newest checkpoint day %d ok=%v err=%v, want day %d", round, label, ok, err, en.WorldDay())
		}
	}
}

// TestWALOnlyRoundReplays: with a cadence longer than a round, the rounds
// between checkpoints are logged as sealed WAL groups, and a campaign
// killed after one resumes from checkpoint + group to the uninterrupted
// result.
func TestWALOnlyRoundReplays(t *testing.T) {
	// Rounds seal at days 7 (checkpoint), 14 (WAL), 21 (checkpoint),
	// 28 (WAL) and 35 (checkpoint).
	cfg := resCfg{sites: 300, seed: 9027, weeks: 3, warmup: 14, every: 10}
	baseline := cfg.build("", false, 0).Run()
	for _, kill := range []int{2, 4} {
		t.Run(fmt.Sprintf("kill-after-round-%d", kill), func(t *testing.T) {
			dir := t.TempDir()
			cfg.build(dir, false, kill).Run()
			wal, err := os.ReadFile(filepath.Join(dir, "wal.log"))
			if err != nil {
				t.Fatal(err)
			}
			days, tail := snapdisk.ReplayWALBytes(wal)
			if tail != nil {
				t.Fatalf("replay: tail %v", tail)
			}
			if len(days) != 1 {
				t.Fatalf("wal holds %d sealed groups, want the one round since the checkpoint", len(days))
			}
			diffResults(t, cfg.build(dir, true, 0).Run(), baseline)
		})
	}
}
