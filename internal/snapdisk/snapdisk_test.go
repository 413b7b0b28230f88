package snapdisk

import (
	"bytes"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rrdps/internal/alexa"
	"rrdps/internal/core/collect"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/snapstore"
)

func name(s string) dnsmsg.Name { return dnsmsg.MustParseName(s) }

func rec(rank int, apex string, addrs []string, cnames, nsHosts []string, resolveOK, nsOK bool) collect.Record {
	r := collect.Record{
		Domain:    alexa.Domain{Rank: rank, Apex: name(apex)},
		ResolveOK: resolveOK,
		NSOK:      nsOK,
	}
	for _, a := range addrs {
		r.Addrs = append(r.Addrs, netip.MustParseAddr(a))
	}
	for _, c := range cnames {
		r.CNAMEs = append(r.CNAMEs, name(c))
	}
	for _, h := range nsHosts {
		r.NSHosts = append(r.NSHosts, name(h))
	}
	return r
}

// testStore builds a store exercising every encoded feature: multiple
// days, deltas, a tombstone, a reappearance, nil vs empty slices, v4 and
// v6 addresses, and a retention window with evicted days.
func testStore(t testing.TB) *snapstore.Store {
	t.Helper()
	s := snapstore.New()
	s.SetWindow(3)
	put := func(day int, recs ...collect.Record) {
		w := s.BeginDay(day)
		for _, r := range recs {
			w.Put(r)
		}
		w.Seal()
	}
	alpha := rec(1, "alpha.com", []string{"10.0.0.1", "2001:db8::1"}, []string{"edge.cdn.net"}, []string{"ns1.alpha.com"}, true, true)
	beta := rec(2, "beta.com", []string{"10.0.0.2"}, nil, []string{"ns1.beta.com", "ns2.beta.com"}, true, false)
	gamma := rec(3, "gamma.com", nil, nil, nil, false, false)
	put(0, alpha, beta, gamma)
	put(2, alpha, beta) // gamma tombstoned; gap in day numbers
	betaB := rec(2, "beta.com", []string{"10.9.9.9"}, []string{"edge.cdn.net"}, nil, true, true)
	put(3, alpha, betaB, gamma) // gamma reappears
	put(5, alpha, betaB, gamma)
	put(6, alpha, betaB, gamma) // day 0 evicted by the window
	return s
}

func diffStates(t *testing.T, got, want snapstore.State) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("states differ:\n got %+v\nwant %+v", got, want)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	s := testStore(t)
	want := s.ExportState()
	campaign := []byte(`{"cursor":42}`)

	buf := MarshalCheckpoint(want, campaign)
	gotState, gotCampaign, err := UnmarshalCheckpoint(buf)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	diffStates(t, gotState, want)
	if !bytes.Equal(gotCampaign, campaign) {
		t.Fatalf("campaign blob: %q != %q", gotCampaign, campaign)
	}

	// The rebuilt store replays every retained day identically and
	// reports the same stats.
	s2, err := snapstore.FromState(gotState)
	if err != nil {
		t.Fatalf("FromState: %v", err)
	}
	if s2.Stats() != s.Stats() {
		t.Fatalf("stats: %+v != %+v", s2.Stats(), s.Stats())
	}
	for _, day := range s.Days() {
		if !reflect.DeepEqual(dayRecords(s2, day), dayRecords(s, day)) {
			t.Fatalf("day %d records differ", day)
		}
	}
}

// dayRecords drains day's cursor, in rank order.
func dayRecords(s *snapstore.Store, day int) []collect.Record {
	var out []collect.Record
	for cur := s.Cursor(day); cur.Next(); {
		out = append(out, cur.Record())
	}
	return out
}

func TestCheckpointNilCampaign(t *testing.T) {
	st := testStore(t).ExportState()
	_, campaign, err := UnmarshalCheckpoint(MarshalCheckpoint(st, nil))
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if campaign != nil {
		t.Fatalf("nil campaign decoded as %q", campaign)
	}
	// An empty (non-nil) blob stays distinguishable from no blob.
	_, campaign, err = UnmarshalCheckpoint(MarshalCheckpoint(st, []byte{}))
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if campaign == nil || len(campaign) != 0 {
		t.Fatalf("empty campaign decoded as %v", campaign)
	}
}

func TestCheckpointEmptyStore(t *testing.T) {
	st := snapstore.New().ExportState()
	got, _, err := UnmarshalCheckpoint(MarshalCheckpoint(st, nil))
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if _, err := snapstore.FromState(got); err != nil {
		t.Fatalf("FromState: %v", err)
	}
}

func TestCheckpointTruncationAlwaysErrors(t *testing.T) {
	buf := MarshalCheckpoint(testStore(t).ExportState(), []byte("blob"))
	for n := 0; n < len(buf); n++ {
		if _, _, err := UnmarshalCheckpoint(buf[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded cleanly", n, len(buf))
		}
	}
}

func TestCheckpointPayloadFlipsError(t *testing.T) {
	// Flipping any payload or checksum byte must surface as an error:
	// every section's content is CRC-covered. (Section id/length header
	// bytes are framing; a flip there errors too, via CRC or framing
	// checks, but the loop below only needs no-panic + mostly-error.)
	buf := MarshalCheckpoint(testStore(t).ExportState(), []byte("blob"))
	clean := 0
	for i := range buf {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0x41
		if _, _, err := UnmarshalCheckpoint(mut); err == nil {
			clean++
		}
	}
	// A handful of header flips can mimic a valid unknown-section skip;
	// anything beyond that means the checksums are not doing their job.
	if clean > len(buf)/50 {
		t.Fatalf("%d/%d single-byte flips decoded cleanly", clean, len(buf))
	}
}

func TestCheckpointDuplicateSection(t *testing.T) {
	st := testStore(t).ExportState()
	buf := MarshalCheckpoint(st, nil)
	// Rebuild with the days section doubled: strip the end section, then
	// append an extra days section and a fresh end.
	var days Writer
	days.Uvarint(uint64(len(st.Days)))
	for _, d := range st.Days {
		days.Int(d)
	}
	days.Int(st.Evicted)
	days.Int(st.Window)
	days.Int(st.Versions)
	days.Int(st.Tombstones)
	endSec := appendSection(nil, secEnd, nil)
	buf = buf[:len(buf)-len(endSec)]
	buf = appendSection(buf, secDays, days.Bytes())
	buf = appendSection(buf, secEnd, nil)
	if _, _, err := UnmarshalCheckpoint(buf); err == nil {
		t.Fatal("duplicate section decoded cleanly")
	}
}

func TestCheckpointUnknownSectionSkipped(t *testing.T) {
	st := testStore(t).ExportState()
	buf := MarshalCheckpoint(st, []byte("blob"))
	endSec := appendSection(nil, secEnd, nil)
	buf = buf[:len(buf)-len(endSec)]
	buf = appendSection(buf, 99, []byte("from a future writer"))
	buf = appendSection(buf, secEnd, nil)
	got, campaign, err := UnmarshalCheckpoint(buf)
	if err != nil {
		t.Fatalf("unknown section not skipped: %v", err)
	}
	diffStates(t, got, st)
	if string(campaign) != "blob" {
		t.Fatalf("campaign blob lost: %q", campaign)
	}
}

func TestCheckpointMissingSection(t *testing.T) {
	// An encoding holding only meta + end must report the missing
	// sections rather than returning an empty store.
	var meta Writer
	meta.Uvarint(checkpointVersion)
	buf := appendSection([]byte(checkpointMagic), secMeta, meta.Bytes())
	buf = appendSection(buf, secEnd, nil)
	if _, _, err := UnmarshalCheckpoint(buf); err == nil {
		t.Fatal("missing sections decoded cleanly")
	}
}

func TestWriteReadCheckpointFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.snap")
	st := testStore(t).ExportState()
	if err := WriteCheckpoint(path, st, []byte("c")); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, campaign, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	diffStates(t, got, st)
	if string(campaign) != "c" {
		t.Fatalf("campaign: %q", campaign)
	}
	// No temp files left behind.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("%d files in dir, want 1", len(entries))
	}
}

func TestDirRotationAndFallback(t *testing.T) {
	d, err := OpenDir(filepath.Join(t.TempDir(), "ckpts"))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	st := testStore(t).ExportState()
	for _, label := range []int{7, 14, 21} {
		if err := d.WriteCheckpoint(label, st, []byte(fmt.Sprintf("label-%d", label))); err != nil {
			t.Fatalf("write %d: %v", label, err)
		}
	}
	// Only the two newest survive pruning.
	labels, err := d.checkpointLabels()
	if err != nil || !reflect.DeepEqual(labels, []int{14, 21}) {
		t.Fatalf("labels = %v (%v), want [14 21]", labels, err)
	}
	_, campaign, label, ok, err := d.LatestCheckpoint()
	if err != nil || !ok || label != 21 || string(campaign) != "label-21" {
		t.Fatalf("latest: label=%d ok=%v campaign=%q err=%v", label, ok, campaign, err)
	}

	// Damage the newest file: LatestCheckpoint falls back to label 14.
	if err := os.WriteFile(d.checkpointPath(21), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	gotState, campaign, label, ok, err := d.LatestCheckpoint()
	if err != nil || !ok || label != 14 || string(campaign) != "label-14" {
		t.Fatalf("fallback: label=%d ok=%v campaign=%q err=%v", label, ok, campaign, err)
	}
	diffStates(t, gotState, st)

	// Clear leaves an empty directory; LatestCheckpoint reports none.
	if err := d.Clear(); err != nil {
		t.Fatalf("clear: %v", err)
	}
	if _, _, _, ok, err := d.LatestCheckpoint(); ok || err != nil {
		t.Fatalf("after clear: ok=%v err=%v", ok, err)
	}
}

// TestDirRecover pins the recovery rule: newest checkpoint plus the
// sealed WAL groups past its last day, with the window applied before
// the replay.
func TestDirRecover(t *testing.T) {
	recs := walRecords()
	// storeOf builds a store that sealed the given days.
	storeOf := func(days ...int) *snapstore.Store {
		s := snapstore.New()
		for _, day := range days {
			w := s.BeginDay(day)
			for _, r := range recs {
				w.Put(r)
			}
			w.Seal()
		}
		return s
	}
	ckpt := func(label int, campaign []byte, days ...int) func(*testing.T, *Dir) {
		return func(t *testing.T, d *Dir) {
			if err := d.WriteCheckpoint(label, storeOf(days...).ExportState(), campaign); err != nil {
				t.Fatal(err)
			}
		}
	}
	// wal seals one group per day, footer "f<day>", and leaves a torn
	// group after them.
	wal := func(days ...int) func(*testing.T, *Dir) {
		return func(t *testing.T, d *Dir) {
			w, err := OpenWAL(d.WALPath())
			if err != nil {
				t.Fatal(err)
			}
			for _, day := range days {
				w.BeginDay(day)
				for _, r := range recs {
					w.Put(r)
				}
				if err := w.SealDay([]byte(fmt.Sprintf("f%d", day))); err != nil {
					t.Fatal(err)
				}
			}
			w.BeginDay(100)
			w.Put(recs[0])
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name         string
		setup        []func(*testing.T, *Dir)
		window       int
		wantErr      bool
		wantOK       bool
		wantCampaign string
		wantDays     []int
	}{
		{name: "empty directory"},
		{name: "wal only", setup: []func(*testing.T, *Dir){wal(0, 1)},
			wantOK: true, wantCampaign: "f1", wantDays: []int{0, 1}},
		{name: "checkpoint plus folded wal groups",
			setup:  []func(*testing.T, *Dir){ckpt(1, []byte("ck"), 0, 1), wal(0, 1, 2)},
			wantOK: true, wantCampaign: "f2", wantDays: []int{0, 1, 2}},
		{name: "checkpoint covers the whole wal",
			setup:  []func(*testing.T, *Dir){ckpt(1, []byte("ck"), 0, 1), wal(0, 1)},
			wantOK: true, wantCampaign: "ck", wantDays: []int{0, 1}},
		{name: "checkpoint without campaign state",
			setup: []func(*testing.T, *Dir){ckpt(1, nil, 0, 1)}, wantErr: true},
		{name: "window 0 keeps every day",
			setup:  []func(*testing.T, *Dir){ckpt(0, []byte("ck"), 0), wal(1, 2, 3)},
			wantOK: true, wantCampaign: "f3", wantDays: []int{0, 1, 2, 3}},
		{name: "window 2 evicts during the replay",
			setup:  []func(*testing.T, *Dir){ckpt(0, []byte("ck"), 0), wal(1, 2, 3)},
			window: 2, wantOK: true, wantCampaign: "f3", wantDays: []int{2, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := OpenDir(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range tc.setup {
				f(t, d)
			}
			store, campaign, ok, err := d.Recover(tc.window)
			if tc.wantErr {
				if err == nil {
					t.Fatal("Recover succeeded, want an error")
				}
				return
			}
			if err != nil || ok != tc.wantOK || string(campaign) != tc.wantCampaign {
				t.Fatalf("Recover = ok %v campaign %q err %v, want ok %v campaign %q",
					ok, campaign, err, tc.wantOK, tc.wantCampaign)
			}
			if got := store.Days(); !reflect.DeepEqual(got, tc.wantDays) {
				t.Fatalf("recovered days %v, want %v", got, tc.wantDays)
			}
		})
	}
}

func walRecords() []collect.Record {
	return []collect.Record{
		rec(1, "alpha.com", []string{"10.0.0.1", "2001:db8::1"}, []string{"edge.cdn.net"}, []string{"ns1.alpha.com"}, true, true),
		rec(2, "beta.com", nil, []string{}, nil, false, false),
		rec(3, "gamma.com", []string{"10.0.0.3"}, nil, []string{"ns1.gamma.com", "ns2.gamma.com"}, true, false),
	}
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	recs := walRecords()
	for day := 0; day < 2; day++ {
		if err := w.BeginDay(day * 3); err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := w.Put(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.SealDay([]byte(fmt.Sprintf("footer-%d", day))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	days, tail, err := ReplayWAL(path)
	if err != nil || tail != nil {
		t.Fatalf("replay: tail=%v err=%v", tail, err)
	}
	if len(days) != 2 {
		t.Fatalf("%d days, want 2", len(days))
	}
	for i, d := range days {
		if d.Day != i*3 || string(d.Footer) != fmt.Sprintf("footer-%d", i) {
			t.Fatalf("day %d: Day=%d Footer=%q", i, d.Day, d.Footer)
		}
		if !reflect.DeepEqual(d.Records, recs) {
			t.Fatalf("day %d records differ:\n got %+v\nwant %+v", i, d.Records, recs)
		}
	}
}

func TestWALMissingFileIsEmpty(t *testing.T) {
	days, tail, err := ReplayWAL(filepath.Join(t.TempDir(), "absent.log"))
	if days != nil || tail != nil || err != nil {
		t.Fatalf("missing file: days=%v tail=%v err=%v", days, tail, err)
	}
}

func TestWALUnsealedTailDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := walRecords()
	w.BeginDay(0)
	for _, r := range recs {
		w.Put(r)
	}
	if err := w.SealDay([]byte("f0")); err != nil {
		t.Fatal(err)
	}
	// Day 1 begins and writes a record but is never sealed: the "crash"
	// here is Close without SealDay (flushed but not durable-marked).
	w.BeginDay(1)
	w.Put(recs[0])
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	days, tail, err := ReplayWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if tail == nil {
		t.Fatal("unsealed tail reported no tail error")
	}
	if len(days) != 1 || days[0].Day != 0 || string(days[0].Footer) != "f0" {
		t.Fatalf("sealed prefix lost: %+v", days)
	}
}

func TestWALTruncationNeverPanics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for day := 0; day < 3; day++ {
		w.BeginDay(day)
		for _, r := range walRecords() {
			w.Put(r)
		}
		if err := w.SealDay([]byte{byte(day)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	full, tail := ReplayWALBytes(b)
	if tail != nil || len(full) != 3 {
		t.Fatalf("full replay: %d days, tail=%v", len(full), tail)
	}
	for n := 0; n < len(b); n++ {
		days, _ := ReplayWALBytes(b[:n])
		// Any cut yields a (possibly empty) prefix of the sealed days.
		if len(days) > 3 {
			t.Fatalf("cut at %d yielded %d days", n, len(days))
		}
		for i, d := range days {
			if !reflect.DeepEqual(d, full[i]) {
				t.Fatalf("cut at %d: day %d differs from full replay", n, i)
			}
		}
	}
}

func TestWALBitFlipsNeverPanic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	w.BeginDay(0)
	w.Put(walRecords()[0])
	if err := w.SealDay(nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		mut := append([]byte(nil), b...)
		mut[i] ^= 0xFF
		days, tail := ReplayWALBytes(mut)
		if tail == nil && !reflect.DeepEqual(days, mustReplay(t, b)) {
			t.Fatalf("flip at %d silently changed the replay", i)
		}
	}
}

func mustReplay(t *testing.T, b []byte) []WALDay {
	t.Helper()
	days, tail := ReplayWALBytes(b)
	if tail != nil {
		t.Fatalf("replay of clean log failed: %v", tail)
	}
	return days
}

func TestWALReset(t *testing.T) {
	for _, tc := range []struct {
		name string
		// prep leaves the file Reset starts from.
		prep func(t *testing.T, path string)
	}{
		{"after a sealed day", func(t *testing.T, path string) {
			w, err := OpenWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			w.BeginDay(0)
			w.Put(walRecords()[0])
			if err := w.SealDay([]byte("f")); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}},
		// A crash while the header was being written leaves a prefix of
		// the magic; Reset must not keep it.
		{"torn header", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte(walMagic[:3]), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			tc.prep(t, path)
			w, err := OpenWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Reset(); err != nil {
				t.Fatalf("reset: %v", err)
			}
			// Post-reset writes land after the magic, not after stale bytes.
			w.BeginDay(7)
			if err := w.SealDay([]byte("g")); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			days, tail, err := ReplayWAL(path)
			if err != nil || tail != nil {
				t.Fatalf("replay: tail=%v err=%v", tail, err)
			}
			if len(days) != 1 || days[0].Day != 7 || string(days[0].Footer) != "g" {
				t.Fatalf("post-reset replay: %+v", days)
			}
		})
	}
}

// FuzzCheckpointDecode pins the package's core promise: arbitrary input
// never panics the checkpoint decoder, and anything that decodes cleanly
// re-encodes to an image that decodes to the same state.
func FuzzCheckpointDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(checkpointMagic))
	f.Add(MarshalCheckpoint(snapstore.New().ExportState(), nil))
	f.Add(MarshalCheckpoint(testStore(f).ExportState(), []byte(`{"cursor":1}`)))
	f.Fuzz(func(t *testing.T, b []byte) {
		st, campaign, err := UnmarshalCheckpoint(b)
		if err != nil {
			return
		}
		// FromState may still reject structurally inconsistent input —
		// but it must do so with an error, not a panic.
		if s, err := snapstore.FromState(st); err == nil {
			_ = s.Stats()
		}
		st2, campaign2, err := UnmarshalCheckpoint(MarshalCheckpoint(st, campaign))
		if err != nil {
			t.Fatalf("re-encode failed to decode: %v", err)
		}
		if !reflect.DeepEqual(st, st2) || !bytes.Equal(campaign, campaign2) {
			t.Fatal("re-encode round trip changed the state")
		}
	})
}

// FuzzWALReplay pins the WAL replay guarantees on arbitrary input: no
// panics, sealed days strictly increasing, replay deterministic, and —
// the property follow-mode tailing leans on — replaying any byte prefix
// yields a prefix of the full log's days, so a reader that catches the
// writer mid-append sees a shorter history, never a different one.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(walMagic))
	{
		path := filepath.Join(f.TempDir(), "wal.log")
		w, err := OpenWAL(path)
		if err != nil {
			f.Fatal(err)
		}
		w.BeginDay(0)
		for _, r := range walRecords() {
			w.Put(r)
		}
		w.SealDay([]byte("footer"))
		w.BeginDay(2)
		w.Put(walRecords()[1])
		w.Close()
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		// Torn tail (the writer died mid-entry) and a flipped bit inside a
		// sealed group (disk corruption): the shapes tailing must survive.
		f.Add(b[:len(b)-3])
		flipped := append([]byte(nil), b...)
		flipped[len(flipped)/2] ^= 0x40
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		days, _ := ReplayWALBytes(b)
		for i := 1; i < len(days); i++ {
			if days[i].Day <= days[i-1].Day {
				t.Fatalf("replayed days not increasing: %d then %d", days[i-1].Day, days[i].Day)
			}
		}
		again, _ := ReplayWALBytes(b)
		if !reflect.DeepEqual(days, again) {
			t.Fatal("replay not deterministic")
		}
		for _, cut := range []int{len(b) / 3, len(b) / 2, len(b) - 1} {
			if cut <= 0 || cut >= len(b) {
				continue
			}
			pre, _ := ReplayWALBytes(b[:cut])
			if len(pre) > len(days) || (len(pre) > 0 && !reflect.DeepEqual(pre, days[:len(pre)])) {
				t.Fatalf("prefix replay at %d bytes is not a prefix of the full replay:\nprefix: %+v\nfull:   %+v",
					cut, pre, days)
			}
		}
	})
}

// TestWALReplayWhileWriting is the snapdisk half of the follow-mode
// guarantee: a reader that snapshots the WAL file (os.ReadFile, exactly
// what Dir.Recover does for serve.CheckpointSource) while the owning
// campaign is actively appending must only ever decode complete sealed
// groups, with each successive read extending the previous one — never
// a partial group, never a rewritten history. Run with -race: reader
// and writer share no Go state, and this test is what checks that
// claim.
func TestWALReplayWhileWriting(t *testing.T) {
	const days = 40
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	done := make(chan struct{})
	var readerFail error
	go func() {
		defer close(done)
		var prev []WALDay
		for i := 0; ; i++ {
			b, err := os.ReadFile(path)
			if err != nil {
				readerFail = err
				return
			}
			got, _ := ReplayWALBytes(b)
			for j, wd := range got {
				if want := []byte(fmt.Sprintf("footer-%d", wd.Day)); !bytes.Equal(wd.Footer, want) {
					readerFail = fmt.Errorf("day %d: footer %q, want %q — a partial group leaked", wd.Day, wd.Footer, want)
					return
				}
				if j < len(prev) && !reflect.DeepEqual(prev[j], got[j]) {
					readerFail = fmt.Errorf("read %d rewrote already-observed day %d", i, prev[j].Day)
					return
				}
			}
			if len(got) < len(prev) {
				readerFail = fmt.Errorf("read %d went backwards: %d days after %d", i, len(got), len(prev))
				return
			}
			prev = got
			if len(got) == days {
				return
			}
		}
	}()

	recs := walRecords()
	for day := 0; day < days; day++ {
		if err := w.BeginDay(day); err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := w.Put(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.SealDay([]byte(fmt.Sprintf("footer-%d", day))); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if readerFail != nil {
		t.Fatal(readerFail)
	}
}

// TestOpenDirReadOnly pins the read-only contract: an existing directory
// opens and serves its newest checkpoint untouched, a missing directory
// is an error (OpenDir would silently create an empty one), and opening
// read-only must not create, clear, or truncate anything — in particular
// not the WAL, which belongs to the campaign that owns the directory.
func TestOpenDirReadOnly(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenDirReadOnly(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("OpenDirReadOnly(missing) = nil error, want error")
	}
	file := filepath.Join(dir, "afile")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDirReadOnly(file); err == nil {
		t.Fatal("OpenDirReadOnly(regular file) = nil error, want error")
	}

	// Write a checkpoint + a fake WAL through the owning path, then
	// reopen read-only and check nothing changed on disk.
	owner, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := testStore(t).ExportState()
	if err := owner.WriteCheckpoint(6, st, []byte("cursor")); err != nil {
		t.Fatal(err)
	}
	walBytes := []byte("campaign-owned wal contents")
	if err := os.WriteFile(owner.WALPath(), walBytes, 0o644); err != nil {
		t.Fatal(err)
	}

	ro, err := OpenDirReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, campaign, label, ok, err := ro.LatestCheckpoint()
	if err != nil || !ok {
		t.Fatalf("LatestCheckpoint: ok=%v err=%v", ok, err)
	}
	if label != 6 || string(campaign) != "cursor" {
		t.Fatalf("label=%d campaign=%q, want 6 %q", label, campaign, "cursor")
	}
	diffStates(t, got, st)
	after, err := os.ReadFile(ro.WALPath())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, walBytes) {
		t.Fatalf("read-only open changed the WAL: %q -> %q", walBytes, after)
	}
}

// benchStore builds a store shaped like a real campaign: nSites apexes
// over nDays days with ~2% daily churn.
func benchStore(b *testing.B, nSites, nDays int) *snapstore.Store {
	b.Helper()
	s := snapstore.New()
	for day := 0; day < nDays; day++ {
		w := s.BeginDay(day)
		for i := 0; i < nSites; i++ {
			suffix := 0
			if day > 0 && i%50 == day%50 {
				suffix = day // churn: this site's address changes today
			}
			w.Put(rec(i+1, fmt.Sprintf("site%05d.com", i),
				[]string{fmt.Sprintf("10.%d.%d.%d", i/250, i%250, suffix)},
				[]string{"edge.shared-cdn.net"},
				[]string{"ns1.shared-dns.net", "ns2.shared-dns.net"}, true, true))
		}
		w.Seal()
	}
	return s
}

func BenchmarkCheckpointEncode(b *testing.B) {
	const nSites, nDays = 1000, 30
	st := benchStore(b, nSites, nDays).ExportState()
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		size = len(MarshalCheckpoint(st, nil))
	}
	b.ReportMetric(float64(size)/float64(nSites*nDays), "bytes/domain-day")
	b.SetBytes(int64(size))
}

func BenchmarkCheckpointDecode(b *testing.B) {
	const nSites, nDays = 1000, 30
	buf := MarshalCheckpoint(benchStore(b, nSites, nDays).ExportState(), nil)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, _, err := UnmarshalCheckpoint(buf)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := snapstore.FromState(st); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWALAppendDay(b *testing.B) {
	const nSites = 1000
	path := filepath.Join(b.TempDir(), "wal.log")
	w, err := OpenWAL(path)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	recs := make([]collect.Record, nSites)
	for i := range recs {
		recs[i] = rec(i+1, fmt.Sprintf("site%05d.com", i),
			[]string{fmt.Sprintf("10.0.%d.%d", i/250, i%250)},
			[]string{"edge.shared-cdn.net"}, []string{"ns1.shared-dns.net"}, true, true)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.BeginDay(i); err != nil {
			b.Fatal(err)
		}
		for _, r := range recs {
			if err := w.Put(r); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.SealDay([]byte("footer")); err != nil {
			b.Fatal(err)
		}
	}
}
