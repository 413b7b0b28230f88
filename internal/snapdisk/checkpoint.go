package snapdisk

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"rrdps/internal/snapstore"
)

// Checkpoint format: an 8-byte magic, then self-delimiting sections, each
// [uvarint id][uvarint payload length][payload][4-byte little-endian
// CRC32-IEEE of the payload], terminated by the end section (id 0, empty).
// A reader verifies every section's checksum before interpreting a byte
// of it, so a bit flip anywhere surfaces as ErrCorrupt rather than as a
// subtly wrong store.
const checkpointMagic = "RRDPSCK1"

// Section ids. New sections get new ids; the format version only bumps
// when an existing section's encoding changes incompatibly.
const (
	secEnd      = 0
	secMeta     = 1
	secNames    = 2
	secApexes   = 3
	secChains   = 4
	secDays     = 5
	secCampaign = 6
)

// checkpointVersion is the current format version, carried in secMeta.
const checkpointVersion = 1

func appendSection(buf []byte, id uint64, payload []byte) []byte {
	var w Writer
	w.Uvarint(id)
	w.Uvarint(uint64(len(payload)))
	buf = append(buf, w.Bytes()...)
	buf = append(buf, payload...)
	sum := crc32.ChecksumIEEE(payload)
	return append(buf, byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24))
}

// readSection consumes one section from r, verifying its checksum.
func readSection(r *Reader) (id uint64, payload []byte, err error) {
	id = r.Uvarint()
	n := r.Len(1)
	if err := r.Err(); err != nil {
		return 0, nil, err
	}
	payload = r.buf[r.off : r.off+n]
	r.off += n
	if r.Remaining() < 4 {
		return 0, nil, corruptf("section %d missing checksum", id)
	}
	b := r.buf[r.off:]
	want := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	r.off += 4
	if got := crc32.ChecksumIEEE(payload); got != want {
		return 0, nil, corruptf("section %d checksum mismatch (%#x != %#x)", id, got, want)
	}
	return id, payload, nil
}

// MarshalCheckpoint encodes a store state plus an opaque campaign-cursor
// blob (nil for a store-only checkpoint) into the checkpoint format.
func MarshalCheckpoint(st snapstore.State, campaign []byte) []byte {
	buf := []byte(checkpointMagic)

	var meta Writer
	meta.Uvarint(checkpointVersion)
	buf = appendSection(buf, secMeta, meta.Bytes())

	var names Writer
	names.Uvarint(uint64(len(st.Names)))
	for _, n := range st.Names {
		names.Name(n)
	}
	buf = appendSection(buf, secNames, names.Bytes())

	var apexes Writer
	apexes.Uvarint(uint64(len(st.Apexes)))
	for _, a := range st.Apexes {
		apexes.Name(a.Name)
		apexes.Int(a.Rank)
	}
	buf = appendSection(buf, secApexes, apexes.Bytes())

	var chains Writer
	chains.Uvarint(uint64(len(st.Chains)))
	for _, chain := range st.Chains {
		chains.Uvarint(uint64(len(chain)))
		for _, v := range chain {
			chains.Int(v.Day)
			chains.Bool(v.Gone)
			writeRecordState(&chains, v.Rec)
		}
	}
	buf = appendSection(buf, secChains, chains.Bytes())

	var days Writer
	days.Uvarint(uint64(len(st.Days)))
	for _, d := range st.Days {
		days.Int(d)
	}
	days.Int(st.Evicted)
	days.Int(st.Window)
	days.Int(st.Versions)
	days.Int(st.Tombstones)
	buf = appendSection(buf, secDays, days.Bytes())

	if campaign != nil {
		buf = appendSection(buf, secCampaign, campaign)
	}
	return appendSection(buf, secEnd, nil)
}

func writeRecordState(w *Writer, rec snapstore.RecordState) {
	w.Uvarint(uint64(len(rec.Addrs)))
	for _, a := range rec.Addrs {
		w.Addr(a)
	}
	writeIDs(w, rec.CNAMEs)
	writeIDs(w, rec.NSHosts)
	w.Bool(rec.ResolveOK)
	w.Bool(rec.NSOK)
}

// writeIDs keeps the nil/empty distinction record equality depends on:
// length 0 means nil, length n+1 means n IDs.
func writeIDs(w *Writer, ids []uint32) {
	if ids == nil {
		w.Uvarint(0)
		return
	}
	w.Uvarint(uint64(len(ids)) + 1)
	for _, id := range ids {
		w.Uvarint(uint64(id))
	}
}

func readIDs(r *Reader) []uint32 {
	n := r.Len(1)
	if r.Err() != nil || n == 0 {
		return nil
	}
	out := make([]uint32, 0, n-1)
	for i := 0; i < n-1; i++ {
		v := r.Uvarint()
		if v > 1<<32-1 {
			r.fail("name id %d out of range", v)
			return nil
		}
		out = append(out, uint32(v))
	}
	return out
}

func readRecordState(r *Reader) snapstore.RecordState {
	var rec snapstore.RecordState
	nAddrs := r.Len(2)
	for i := 0; i < nAddrs && r.Err() == nil; i++ {
		rec.Addrs = append(rec.Addrs, r.Addr())
	}
	rec.CNAMEs = readIDs(r)
	rec.NSHosts = readIDs(r)
	rec.ResolveOK = r.Bool()
	rec.NSOK = r.Bool()
	return rec
}

// UnmarshalCheckpoint decodes a checkpoint back into a store state and
// the campaign blob it carried (nil when none was written). Any damage —
// truncation, checksum mismatch, structural nonsense — returns an error
// wrapping ErrCorrupt; it never panics and never returns a silently
// partial state.
func UnmarshalCheckpoint(b []byte) (snapstore.State, []byte, error) {
	var st snapstore.State
	if len(b) < len(checkpointMagic) || string(b[:len(checkpointMagic)]) != checkpointMagic {
		return st, nil, corruptf("bad magic")
	}
	r := NewReader(b[len(checkpointMagic):])
	var campaign []byte
	seen := map[uint64]bool{}
	for {
		id, payload, err := readSection(r)
		if err != nil {
			return st, nil, err
		}
		if id == secEnd {
			break
		}
		if seen[id] {
			return st, nil, corruptf("duplicate section %d", id)
		}
		seen[id] = true
		sr := NewReader(payload)
		switch id {
		case secMeta:
			if v := sr.Uvarint(); sr.Err() == nil && v != checkpointVersion {
				return st, nil, corruptf("unsupported checkpoint version %d", v)
			}
		case secNames:
			n := sr.Len(1)
			for i := 0; i < n && sr.Err() == nil; i++ {
				st.Names = append(st.Names, sr.Name())
			}
		case secApexes:
			n := sr.Len(2)
			for i := 0; i < n && sr.Err() == nil; i++ {
				st.Apexes = append(st.Apexes, snapstore.ApexState{Name: sr.Name(), Rank: sr.Int()})
			}
		case secChains:
			n := sr.Len(1)
			for i := 0; i < n && sr.Err() == nil; i++ {
				m := sr.Len(1)
				chain := make([]snapstore.VersionState, 0, m)
				for j := 0; j < m && sr.Err() == nil; j++ {
					chain = append(chain, snapstore.VersionState{
						Day:  sr.Int(),
						Gone: sr.Bool(),
						Rec:  readRecordState(sr),
					})
				}
				st.Chains = append(st.Chains, chain)
			}
		case secDays:
			n := sr.Len(1)
			for i := 0; i < n && sr.Err() == nil; i++ {
				st.Days = append(st.Days, sr.Int())
			}
			st.Evicted = sr.Int()
			st.Window = sr.Int()
			st.Versions = sr.Int()
			st.Tombstones = sr.Int()
		case secCampaign:
			// make, not append: a present-but-empty blob must stay
			// distinguishable from an absent one (nil).
			campaign = make([]byte, len(payload))
			copy(campaign, payload)
		default:
			// Unknown section from a newer writer: checksum verified, skip.
		}
		if err := sr.Err(); err != nil {
			return st, nil, fmt.Errorf("section %d: %w", id, err)
		}
	}
	for _, id := range []uint64{secMeta, secNames, secApexes, secChains, secDays} {
		if !seen[id] {
			return st, nil, corruptf("missing section %d", id)
		}
	}
	return st, campaign, nil
}

// WriteCheckpoint atomically writes a checkpoint file: the encoding goes
// to a temporary sibling, is synced, and is renamed over path, so a crash
// mid-write leaves either the old file or the new one — never a torn mix.
func WriteCheckpoint(path string, st snapstore.State, campaign []byte) error {
	buf := MarshalCheckpoint(st, campaign)
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("snapdisk: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("snapdisk: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("snapdisk: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("snapdisk: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("snapdisk: %w", err)
	}
	return nil
}

// ReadCheckpoint reads and decodes one checkpoint file.
func ReadCheckpoint(path string) (snapstore.State, []byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return snapstore.State{}, nil, fmt.Errorf("snapdisk: %w", err)
	}
	st, campaign, err := UnmarshalCheckpoint(b)
	if err != nil {
		return snapstore.State{}, nil, fmt.Errorf("snapdisk: %s: %w", path, err)
	}
	return st, campaign, nil
}

// Dir manages a campaign's checkpoint directory: numbered checkpoint
// files (ckpt-<label>.snap, atomic-renamed into place, newest two kept)
// plus the campaign's WAL.
type Dir struct {
	path string
}

// OpenDir opens (creating if needed) a checkpoint directory.
func OpenDir(path string) (*Dir, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("snapdisk: %w", err)
	}
	return &Dir{path: path}, nil
}

// OpenDirReadOnly opens an existing checkpoint directory for reading —
// the lookup-service path. Unlike OpenDir it never creates the
// directory, and a consumer holding a read-only Dir must only call
// LatestCheckpoint and Recover: the WAL append path (and the campaign
// code that truncates the WAL on open) belongs to the campaign that
// owns the directory. A missing directory is an error, not an empty
// campaign, because a reader pointed at the wrong path should say so
// rather than serve nothing.
func OpenDirReadOnly(path string) (*Dir, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("snapdisk: %w", err)
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("snapdisk: %s is not a directory", path)
	}
	return &Dir{path: path}, nil
}

// Path returns the directory path.
func (d *Dir) Path() string { return d.path }

// WALPath returns the campaign WAL's path inside the directory.
func (d *Dir) WALPath() string { return filepath.Join(d.path, "wal.log") }

func (d *Dir) checkpointPath(label int) string {
	return filepath.Join(d.path, fmt.Sprintf("ckpt-%09d.snap", label))
}

// checkpointLabels returns the labels of the checkpoint files present,
// ascending. Unparsable names are ignored.
func (d *Dir) checkpointLabels() ([]int, error) {
	entries, err := os.ReadDir(d.path)
	if err != nil {
		return nil, fmt.Errorf("snapdisk: %w", err)
	}
	var labels []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "ckpt-") || !strings.HasSuffix(name, ".snap") {
			continue
		}
		var label int
		if _, err := fmt.Sscanf(name, "ckpt-%d.snap", &label); err != nil {
			continue
		}
		labels = append(labels, label)
	}
	sort.Ints(labels)
	return labels, nil
}

// WriteCheckpoint writes a labelled checkpoint (labels must increase over
// a campaign's life; day or week numbers do) and prunes all but the two
// newest, keeping one fallback in case the newest is damaged on disk.
func (d *Dir) WriteCheckpoint(label int, st snapstore.State, campaign []byte) error {
	if err := WriteCheckpoint(d.checkpointPath(label), st, campaign); err != nil {
		return err
	}
	labels, err := d.checkpointLabels()
	if err != nil {
		return err
	}
	for len(labels) > 2 {
		if err := os.Remove(d.checkpointPath(labels[0])); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("snapdisk: %w", err)
		}
		labels = labels[1:]
	}
	return nil
}

// LatestCheckpoint decodes the newest valid checkpoint in the directory,
// falling back to older ones when the newest is corrupt. ok is false when
// no checkpoint file decodes (a fresh or damaged-beyond-repair
// directory); err reports I/O failures, never corruption.
func (d *Dir) LatestCheckpoint() (st snapstore.State, campaign []byte, label int, ok bool, err error) {
	labels, err := d.checkpointLabels()
	if err != nil {
		return st, nil, 0, false, err
	}
	for i := len(labels) - 1; i >= 0; i-- {
		st, campaign, rerr := ReadCheckpoint(d.checkpointPath(labels[i]))
		if rerr == nil {
			return st, campaign, labels[i], true, nil
		}
	}
	return snapstore.State{}, nil, 0, false, nil
}

// Recover rebuilds a campaign's durable state: the newest valid
// checkpoint plus the sealed WAL day groups after it, and the campaign
// blob of the last of them (the checkpoint's when the WAL adds no day).
// It is the one home of that rule — a resuming campaign and a follower
// tailing a live writer both call it. ok is false when the directory
// holds no sealed state at all. A checkpoint without a campaign blob is
// an error: a campaign directory always carries its cursor.
//
// window > 0 bounds the store's retention before the replay, so the
// replayed days evict as the writer's did; 0 keeps the checkpoint's own
// bound (unbounded when there is no checkpoint).
//
// The WAL bytes are read BEFORE the checkpoint is picked, which is what
// makes Recover safe against a writer running concurrently. The WAL only
// ever holds the day groups sealed after some checkpoint C; a checkpoint
// picked later is C or newer, so every WAL day past its coverage extends
// it contiguously. Reading the checkpoint first would race the writer's
// checkpoint-then-truncate step: a WAL read after the truncate can start
// past the stale checkpoint's coverage, leaving a day gap.
func (d *Dir) Recover(window int) (store *snapstore.Store, campaign []byte, ok bool, err error) {
	walBytes, err := os.ReadFile(d.WALPath())
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, false, fmt.Errorf("snapdisk: %w", err)
	}
	st, campaign, label, ok, err := d.LatestCheckpoint()
	if err != nil {
		return nil, nil, false, err
	}
	store = snapstore.New()
	if ok {
		if campaign == nil {
			return nil, nil, false, fmt.Errorf("snapdisk: checkpoint %d in %s carries no campaign state", label, d.path)
		}
		if store, err = snapstore.FromState(st); err != nil {
			return nil, nil, false, err
		}
	}
	if window > 0 {
		store.SetWindow(window)
	}
	// A torn tail (or a missing log) just ends the replay: only sealed
	// groups come back.
	days, _ := ReplayWALBytes(walBytes)
	for _, wd := range days {
		if last, has := store.LatestDay(); has && wd.Day <= last {
			continue // already folded into the checkpoint
		}
		dw := store.BeginDay(wd.Day)
		for _, rec := range wd.Records {
			dw.Put(rec)
		}
		dw.Seal()
		campaign, ok = wd.Footer, true
	}
	return store, campaign, ok, nil
}

// Clear removes every checkpoint file and the WAL — a fresh campaign
// taking ownership of the directory.
func (d *Dir) Clear() error {
	labels, err := d.checkpointLabels()
	if err != nil {
		return err
	}
	for _, label := range labels {
		if err := os.Remove(d.checkpointPath(label)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("snapdisk: %w", err)
		}
	}
	if err := os.Remove(d.WALPath()); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("snapdisk: %w", err)
	}
	return nil
}
