package snapdisk

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net/netip"
	"os"

	"rrdps/internal/alexa"
	"rrdps/internal/core/collect"
	"rrdps/internal/dnsmsg"
)

// WAL is the campaign's day-level write-ahead log. Each logged day is
// one group: a begin entry, the day's Put records, and a seal entry
// carrying the campaign's per-day footer blob. Only the seal is durably
// flushed — a crash mid-group leaves an unsealed tail that replay drops,
// and the campaign re-collects that day live (the world is quiescent
// during a day and the resolver cache is purged at each pass start, so
// the rerun is value-identical). Sealed groups between checkpoints are
// what resume replays instead of re-querying.
//
// Entry framing: [1-byte kind][uvarint payload length][payload]
// [4-byte little-endian CRC32-IEEE of kind+payload], after an 8-byte
// file magic. The CRC covers the kind byte so a flipped kind cannot
// reinterpret a payload.
type WAL struct {
	f  *os.File
	bw *bufio.Writer
}

const walMagic = "RRDPSWL1"

// WAL entry kinds.
const (
	walBegin = 1 // payload: day number
	walPut   = 2 // payload: one collect.Record
	walSeal  = 3 // payload: opaque campaign footer
)

// OpenWAL opens (creating if needed) a WAL for appending. An empty file
// gets the magic header; a non-empty one is appended to as-is, so open
// a WAL for writing only after recovery has truncated or validated it.
func OpenWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("snapdisk: %w", err)
	}
	w := &WAL{f: f, bw: bufio.NewWriter(f)}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("snapdisk: %w", err)
	}
	if fi.Size() == 0 {
		if _, err := w.bw.WriteString(walMagic); err != nil {
			f.Close()
			return nil, fmt.Errorf("snapdisk: %w", err)
		}
	}
	return w, nil
}

func (w *WAL) writeEntry(kind byte, payload []byte) error {
	// head is the kind byte followed by the payload length; it is reused
	// for the checksum trailer.
	head := append(make([]byte, 0, 1+binary.MaxVarintLen64), kind)
	head = binary.AppendUvarint(head, uint64(len(payload)))
	sum := crc32.Update(crc32.ChecksumIEEE(head[:1]), crc32.IEEETable, payload)
	if _, err := w.bw.Write(head); err != nil {
		return fmt.Errorf("snapdisk: %w", err)
	}
	if _, err := w.bw.Write(payload); err != nil {
		return fmt.Errorf("snapdisk: %w", err)
	}
	if _, err := w.bw.Write(binary.LittleEndian.AppendUint32(head[:0], sum)); err != nil {
		return fmt.Errorf("snapdisk: %w", err)
	}
	return nil
}

// BeginDay starts a day group.
func (w *WAL) BeginDay(day int) error {
	var p Writer
	p.Int(day)
	return w.writeEntry(walBegin, p.Bytes())
}

// Put appends one record to the open day group.
func (w *WAL) Put(rec collect.Record) error {
	var p Writer
	encodeRecord(&p, rec)
	return w.writeEntry(walPut, p.Bytes())
}

// SealDay closes the open day group with the campaign's footer blob and
// makes the whole group durable (flush + fsync). After SealDay returns,
// replay will yield this day even across a crash.
func (w *WAL) SealDay(footer []byte) error {
	if footer == nil {
		footer = []byte{}
	}
	if err := w.writeEntry(walSeal, footer); err != nil {
		return err
	}
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("snapdisk: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("snapdisk: %w", err)
	}
	return nil
}

// Reset truncates the log to empty and rewrites the magic header —
// called right after a full checkpoint subsumes the sealed days, and
// when a campaign takes the log over. Truncating to zero rather than to
// the header's length matters for a file torn inside its header: kept,
// those bytes would make every later sealed day unreadable.
func (w *WAL) Reset() error {
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("snapdisk: %w", err)
	}
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("snapdisk: %w", err)
	}
	// The file is opened O_APPEND, so the header lands at offset 0.
	if _, err := w.f.WriteString(walMagic); err != nil {
		return fmt.Errorf("snapdisk: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("snapdisk: %w", err)
	}
	return nil
}

// Close flushes and closes the log.
func (w *WAL) Close() error {
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return fmt.Errorf("snapdisk: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("snapdisk: %w", err)
	}
	return nil
}

// WALDay is one sealed day group recovered from the log.
type WALDay struct {
	Day     int
	Records []collect.Record
	Footer  []byte
}

// ReplayWALBytes parses a WAL image, returning every fully sealed day
// group in order. Parsing stops at the first damaged or truncated entry
// and at the first structural violation (a Put outside a day group, a
// day number going backwards); whatever follows is dropped and the tail
// error says why. Damage therefore costs at most the unsealed day —
// never a panic, never a half-applied day.
func ReplayWALBytes(b []byte) (days []WALDay, tail error) {
	if len(b) < len(walMagic) || string(b[:len(walMagic)]) != walMagic {
		return nil, corruptf("bad wal magic")
	}
	off := len(walMagic)
	var open *WALDay
	for off < len(b) {
		kind := b[off]
		r := NewReader(b[off+1:])
		n := r.Uvarint()
		if r.Err() != nil {
			return days, corruptf("bad entry length at offset %d", off)
		}
		hdrLen := 1 + (len(b) - off - 1 - r.Remaining())
		if n > uint64(len(b)-off-hdrLen) || len(b)-off-hdrLen-int(n) < 4 {
			return days, corruptf("truncated entry at offset %d", off)
		}
		payload := b[off+hdrLen : off+hdrLen+int(n)]
		cb := b[off+hdrLen+int(n):]
		want := uint32(cb[0]) | uint32(cb[1])<<8 | uint32(cb[2])<<16 | uint32(cb[3])<<24
		sum := crc32.ChecksumIEEE(append([]byte{kind}, payload...))
		if sum != want {
			return days, corruptf("entry checksum mismatch at offset %d", off)
		}
		off += hdrLen + int(n) + 4

		switch kind {
		case walBegin:
			if open != nil {
				return days, corruptf("begin-day inside open day %d", open.Day)
			}
			pr := NewReader(payload)
			day := pr.Int()
			if pr.Err() != nil || pr.Remaining() != 0 {
				return days, corruptf("bad begin-day payload")
			}
			if len(days) > 0 && day <= days[len(days)-1].Day {
				return days, corruptf("day %d not after day %d", day, days[len(days)-1].Day)
			}
			open = &WALDay{Day: day}
		case walPut:
			if open == nil {
				return days, corruptf("put outside a day group")
			}
			pr := NewReader(payload)
			rec := decodeRecord(pr)
			if err := pr.Err(); err != nil {
				return days, fmt.Errorf("day %d record: %w", open.Day, err)
			}
			if pr.Remaining() != 0 {
				return days, corruptf("day %d record has trailing bytes", open.Day)
			}
			open.Records = append(open.Records, rec)
		case walSeal:
			if open == nil {
				return days, corruptf("seal outside a day group")
			}
			open.Footer = append([]byte(nil), payload...)
			days = append(days, *open)
			open = nil
		default:
			return days, corruptf("unknown entry kind %d", kind)
		}
	}
	if open != nil {
		return days, corruptf("day %d never sealed", open.Day)
	}
	return days, nil
}

// encodeRecord writes one collect.Record. Full names, not interner IDs:
// the WAL must replay standalone, and a mid-campaign day legitimately
// introduces names the last checkpoint's interner has never seen.
func encodeRecord(w *Writer, rec collect.Record) {
	w.Int(rec.Domain.Rank)
	w.Name(rec.Domain.Apex)
	if rec.Addrs == nil {
		w.Uvarint(0)
	} else {
		w.Uvarint(uint64(len(rec.Addrs)) + 1)
		for _, a := range rec.Addrs {
			w.Addr(a)
		}
	}
	writeNames(w, rec.CNAMEs)
	writeNames(w, rec.NSHosts)
	w.Bool(rec.ResolveOK)
	w.Bool(rec.NSOK)
}

func decodeRecord(r *Reader) collect.Record {
	var rec collect.Record
	rec.Domain = alexa.Domain{Rank: r.Int(), Apex: r.Name()}
	nAddrs := r.Len(2)
	if r.Err() == nil && nAddrs > 0 {
		rec.Addrs = make([]netip.Addr, 0, nAddrs-1)
		for i := 0; i < nAddrs-1 && r.Err() == nil; i++ {
			rec.Addrs = append(rec.Addrs, r.Addr())
		}
	}
	rec.CNAMEs = readNames(r)
	rec.NSHosts = readNames(r)
	rec.ResolveOK = r.Bool()
	rec.NSOK = r.Bool()
	return rec
}

// writeNames / readNames keep the nil/empty distinction (length 0 is
// nil, n+1 is n names) so a replayed record compares deep-equal to the
// one that was logged.
func writeNames(w *Writer, names []dnsmsg.Name) {
	if names == nil {
		w.Uvarint(0)
		return
	}
	w.Uvarint(uint64(len(names)) + 1)
	for _, n := range names {
		w.Name(n)
	}
}

func readNames(r *Reader) []dnsmsg.Name {
	n := r.Len(1)
	if r.Err() != nil || n == 0 {
		return nil
	}
	out := make([]dnsmsg.Name, 0, n-1)
	for i := 0; i < n-1 && r.Err() == nil; i++ {
		out = append(out, r.Name())
	}
	return out
}
