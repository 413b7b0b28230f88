package experiment

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"rrdps/internal/core/collect"
	"rrdps/internal/snapdisk"
	"rrdps/internal/snapstore"
)

// TestDynamicsOnSealMatchesCheckpoint pins the live/checkpoint
// equivalence the lookup service builds on: the blob and view the last
// OnSeal hook hands a live consumer are exactly what the final on-disk
// checkpoint carries — byte-identical cursor, value-identical store.
func TestDynamicsOnSealMatchesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	var views []*snapstore.View
	var blobs [][]byte
	Dynamics{
		World:         dynamicsWorld(200, 8201),
		Days:          5,
		CheckpointDir: dir,
		OnSeal: func(v *snapstore.View, blob []byte) {
			views = append(views, v)
			blobs = append(blobs, blob)
		},
	}.Run()

	if len(views) != 5 {
		t.Fatalf("OnSeal fired %d times, want once per day (5)", len(views))
	}
	d, err := snapdisk.OpenDirReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, campaign, _, ok, err := d.LatestCheckpoint()
	if err != nil || !ok {
		t.Fatalf("LatestCheckpoint: ok=%v err=%v", ok, err)
	}
	last := len(views) - 1
	if !bytes.Equal(blobs[last], campaign) {
		t.Fatalf("last OnSeal blob differs from final checkpoint campaign blob:\n%s\nvs\n%s", blobs[last], campaign)
	}
	loaded, err := snapstore.FromState(st)
	if err != nil {
		t.Fatal(err)
	}
	day, ok := views[last].LatestDay()
	if !ok {
		t.Fatal("last view has no days")
	}
	if lday, _ := loaded.LatestDay(); lday != day {
		t.Fatalf("checkpoint latest day %d != view latest day %d", lday, day)
	}
	var want, got []collect.Record
	for cur := loaded.Cursor(day); cur.Next(); {
		want = append(want, cur.Record())
	}
	for cur := views[last].Cursor(day); cur.Next(); {
		got = append(got, cur.Record())
	}
	if len(got) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("view day %d (%d records) differs from checkpoint (%d records)", day, len(got), len(want))
	}

	// Every hook's blob must decode as a dynamics campaign state whose
	// day index advances with the rounds.
	for i, blob := range blobs {
		cs, err := DecodeCampaignState(blob)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if cs.Kind != CampaignKindDynamics || cs.Dynamics == nil || cs.Residual != nil {
			t.Fatalf("round %d: kind=%q dyn=%v res=%v", i, cs.Kind, cs.Dynamics != nil, cs.Residual != nil)
		}
		if cs.Dynamics.NextDay != i+1 {
			t.Fatalf("round %d: NextDay=%d, want %d", i, cs.Dynamics.NextDay, i+1)
		}
	}
	assertCursorKeys(t, blobs[last], "adoptions", "base_stats", "breakdowns", "have_tracker", "health",
		"kind", "net", "next_day", "obs", "rand_draws", "tracker", "unchanged", "world_day")
	final, _ := DecodeCampaignState(blobs[last])
	if len(final.Dynamics.Adoptions) == 0 {
		t.Fatal("final state carries no adoptions")
	}
	if !final.Dynamics.HaveTracker {
		t.Fatal("final state carries no tracker")
	}
}

// TestResidualOnSealDecodes checks the residual cursor round-trips
// through DecodeCampaignState with its weekly products intact, without
// requiring a checkpoint directory (a live-only consumer).
func TestResidualOnSealDecodes(t *testing.T) {
	var lastBlob []byte
	rounds := 0
	res := Residual{
		World:      residualWorld(200, 8301),
		Weeks:      2,
		WarmupDays: 7,
		OnSeal: func(v *snapstore.View, blob []byte) {
			rounds++
			lastBlob = blob
			if _, ok := v.LatestDay(); !ok {
				t.Error("OnSeal view has no sealed days")
			}
		},
	}.Run()

	if rounds != 3 { // one warm-up round + two weeks
		t.Fatalf("OnSeal fired %d times, want 3", rounds)
	}
	assertCursorKeys(t, lastBlob, "base_stats", "cf_exposure", "cloudflare", "cname_lib", "health",
		"inc_exposure", "incapsula", "kind", "nameserver_count", "net", "next_week", "obs", "scanner",
		"warmup_remaining", "world_day")
	cs, err := DecodeCampaignState(lastBlob)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Kind != CampaignKindResidual || cs.Residual == nil || cs.Dynamics != nil {
		t.Fatalf("kind=%q res=%v dyn=%v", cs.Kind, cs.Residual != nil, cs.Dynamics != nil)
	}
	if cs.Residual.NextWeek != 3 {
		t.Fatalf("NextWeek=%d, want 3 (campaign done)", cs.Residual.NextWeek)
	}
	if len(cs.Residual.Cloudflare) != len(res.Cloudflare) {
		t.Fatalf("state has %d cloudflare weeks, result %d", len(cs.Residual.Cloudflare), len(res.Cloudflare))
	}
	if cs.WorldDay() == 0 {
		t.Fatal("WorldDay() = 0 after a 3-round campaign")
	}
}

// assertCursorKeys pins a cursor blob's top-level JSON keys (sorted):
// checkpoints written by other versions must keep decoding, so a key may
// never be renamed or dropped.
func assertCursorKeys(t *testing.T, blob []byte, want ...string) {
	t.Helper()
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(blob, &fields); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range fields {
		got = append(got, k)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("cursor keys %v, want %v", got, want)
	}
}

func TestDecodeCampaignStateRejectsGarbage(t *testing.T) {
	if _, err := DecodeCampaignState([]byte("not json")); err == nil {
		t.Fatal("garbage blob decoded")
	}
	if _, err := DecodeCampaignState([]byte(`{"kind":"mystery"}`)); err == nil {
		t.Fatal("unknown kind decoded")
	}
}
