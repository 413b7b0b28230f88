package experiment

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"rrdps/internal/snapdisk"
)

// latestCampaignBlob returns the campaign blob of dir's newest
// checkpoint.
func latestCampaignBlob(t *testing.T, dir string) []byte {
	t.Helper()
	d, err := snapdisk.OpenDirReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, campaign, _, ok, err := d.LatestCheckpoint()
	if err != nil || !ok {
		t.Fatalf("LatestCheckpoint: ok=%v err=%v", ok, err)
	}
	return campaign
}

// TestDynamicsCheckpointStateDecodes pins what the lookup service reads
// from a dynamics campaign: every sealed round's cursor decodes as a
// dynamics state whose day index advances with the rounds, and a forced
// checkpoint carries the last round's cursor byte for byte.
func TestDynamicsCheckpointStateDecodes(t *testing.T) {
	dir := t.TempDir()
	en := Dynamics{World: dynamicsWorld(200, 8201), CheckpointDir: dir}.NewEngine()
	defer en.Close()
	for i := 0; i < 5; i++ {
		en.AppendDay()
		cs, err := DecodeCampaignState(en.log.footer)
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
	en.Checkpoint()
	blob := latestCampaignBlob(t, dir)
	if !bytes.Equal(blob, en.log.footer) {
		t.Fatalf("final checkpoint blob differs from the last round's cursor:\n%s\nvs\n%s", blob, en.log.footer)
	}
	assertCursorKeys(t, blob, "adoptions", "base_stats", "breakdowns", "have_tracker", "health",
		"kind", "net", "next_day", "obs", "tracker", "unchanged", "world_day")
	final, _ := DecodeCampaignState(blob)
	if len(final.Dynamics.Adoptions) == 0 {
		t.Fatal("final state carries no adoptions")
	}
	if !final.Dynamics.HaveTracker {
		t.Fatal("final state carries no tracker")
	}
}

// TestResidualCheckpointStateDecodes checks the residual cursor
// round-trips through DecodeCampaignState with its weekly products
// intact.
func TestResidualCheckpointStateDecodes(t *testing.T) {
	dir := t.TempDir()
	res := Residual{
		World:         residualWorld(200, 8301),
		Weeks:         2,
		WarmupDays:    7,
		CheckpointDir: dir,
	}.Run()

	blob := latestCampaignBlob(t, dir)
	assertCursorKeys(t, blob, "base_stats", "cf_exposure", "cloudflare", "cname_lib", "health",
		"inc_exposure", "incapsula", "kind", "nameserver_count", "net", "next_week", "obs", "scanner",
		"warmup_remaining", "world_day")
	cs, err := DecodeCampaignState(blob)
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
