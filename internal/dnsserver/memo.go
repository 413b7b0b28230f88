package dnsserver

import (
	"bytes"
	"hash/maphash"
	"math"
	"sync"
	"sync/atomic"

	"rrdps/internal/dnsmsg"
	"rrdps/internal/dnszone"
)

// The answer memo stores the encoded response to each query a server has
// answered, keyed by the query's bytes after the 2-byte ID.
//
// A response is a pure function of those bytes, of which hosted zone
// answers the question, and of the zone records the lookup read:
// respondInto reads nothing else from the request, and the ID is only
// echoed. So an entry stays valid while both inputs stand still, and it
// records what it needs to check that:
//
//   - zone, serial and deps: the answering zone (nil for REFUSED and
//     ignored queries), its serial from WatchSerial before the answer was
//     computed, and the owner names the lookup read (dnszone.Deps). Every
//     zone mutator bumps the serial and stamps the owner it changed with
//     the new serial. An unchanged serial means unchanged contents; after
//     a serial change the entry holds if no owner in deps has a later
//     stamp (Zone.Unchanged). That is what keeps a TLD referral across
//     the week's churn in other delegations. NODATA, NXDOMAIN and NOTIMP
//     answers depend on the whole zone: the first two carry the SOA and
//     its serial.
//   - gen and the qname: the server's zone-set generation, which AddZone
//     and RemoveZone bump. On a mismatch, findZone(qname) must still pick
//     the same zone. Providers add and remove customer zones every day,
//     so trusting the generation alone would discard every answer of a
//     provider's server every day.
//
// Both inputs are read before the answer is computed, so a concurrent
// change can only make an entry look older than it is.
//
// Readers use a published immutable table and take no lock. New answers
// go into a locked pending set, which a table miss also consults. Once
// the answers served under the lock add up to the table's size, the table
// is republished: pending entries are merged, entries that no longer
// validate are dropped, and the survivors are stamped with the current
// serial and generation. The copy costs O(1) amortized per answer, and an
// entry for a removed zone does not keep the zone alive past the next
// republish.
type answerMemo struct {
	table atomic.Pointer[memoTable]

	mu      sync.Mutex
	pending map[uint64]memoEntry // answered since the last republish; buf indexes chunks
	chunks  [][]byte             // pending answers' bytes, in buffers never regrown
	misses  int                  // answers served under mu since the last republish
	added   int                  // pending answers at the last republish
}

// memoTable is a published table: the entries by key hash, and one
// buffer holding their bytes. It is never modified once published.
type memoTable struct {
	entries map[uint64]memoEntry
	wire    []byte
}

// get returns the entry for hash h and its bytes.
func (t *memoTable) get(h uint64) (memoEntry, []byte, bool) {
	e, ok := t.entries[h]
	if !ok {
		return memoEntry{}, nil, false
	}
	return e, e.bytes(t.wire), true
}

// memoEntry is one memoized answer; its only pointer is the zone. Its
// bytes start at off in its table's buffer, or in pending buffer buf:
// the query after its ID (keyLen bytes), then the response after its ID
// (respLen bytes; none when the server ignores the query). When echo is
// set, the response's bytes from offset 10, its question section, repeat
// the query's and are left out, and the query's first name, written
// uncompressed, spells the qname. Otherwise the qname follows the
// response (qnameLen bytes). Last come the answer's dependencies in the
// zone, as dnszone.Deps.AppendTo wrote them (depsLen bytes).
type memoEntry struct {
	zone        *dnszone.Zone
	off         uint32
	serial, gen uint32
	keyLen      uint16
	respLen     uint16
	buf         uint16
	qnameLen    uint8
	depsLen     uint8
	echo        bool
}

func (e *memoEntry) size() int {
	return int(e.keyLen) + int(e.respLen) + int(e.qnameLen) + int(e.depsLen)
}

func (e *memoEntry) bytes(buf []byte) []byte {
	return buf[e.off : int(e.off)+e.size()]
}

// memoSeed keys the memo's hash; the memo's contents do not depend on it.
var memoSeed = maphash.MakeSeed()

func memoHash(key []byte) uint64 { return maphash.Bytes(memoSeed, key) }

// headerTail is the length of a DNS header after its 2-byte ID.
const headerTail = 10

func (e *memoEntry) matches(w, key []byte) bool {
	return int(e.keyLen) == len(key) && bytes.Equal(w[:e.keyLen], key)
}

// appendQname appends the name the answer was looked up for to dst.
func (e *memoEntry) appendQname(dst, w []byte) []byte {
	if !e.echo {
		start := int(e.keyLen) + int(e.respLen)
		return append(dst, w[start:start+int(e.qnameLen)]...)
	}
	start := len(dst)
	for w := w[headerTail:]; w[0] != 0; w = w[1+int(w[0]):] {
		if len(dst) > start {
			dst = append(dst, '.')
		}
		dst = append(dst, w[1:1+int(w[0])]...)
	}
	return dst
}

// ignored reports whether the server drops the query.
func (e *memoEntry) ignored() bool { return e.respLen == 0 }

// appendResponse appends the full response to query, whose bytes after the
// ID e matches, to dst: the query's ID and the stored bytes w, with the
// query's question section spliced back in for an echo entry.
func (e *memoEntry) appendResponse(dst, w, query []byte) []byte {
	dst = append(dst, query[0], query[1])
	resp := w[e.keyLen : int(e.keyLen)+int(e.respLen)]
	if !e.echo {
		return append(dst, resp...)
	}
	dst = append(dst, resp[:headerTail]...)
	dst = append(dst, query[2+headerTail:]...)
	return append(dst, resp[headerTail:]...)
}

// valid reports whether e, with bytes w, still answers its query, given
// the zone-set generation gen loaded before the call. An entry that
// outlived a serial change is restamped with the serial it holds at.
func (s *Server) valid(e *memoEntry, w []byte, gen uint32) bool {
	if e.zone != nil && e.zone.Serial() != e.serial {
		serial, ok := e.zone.Unchanged(e.serial, w[e.size()-int(e.depsLen):e.size()])
		if !ok {
			return false
		}
		e.serial = serial
	}
	if e.gen == gen {
		return true
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.zoneOfLocked(e, w) == e.zone
}

// zoneOfLocked is findZone for e's qname, walking its bytes so it does
// not allocate. The caller holds s.mu.
func (s *Server) zoneOfLocked(e *memoEntry, w []byte) *dnszone.Zone {
	var buf [256]byte
	name := e.appendQname(buf[:0], w)
	for {
		if z, ok := s.zones[dnsmsg.Name(name)]; ok {
			return z
		}
		if len(name) == 0 {
			return nil
		}
		if i := bytes.IndexByte(name, '.'); i >= 0 {
			name = name[i+1:]
		} else {
			name = name[:0]
		}
	}
}

// memoLookup returns the valid memoized answer to the query whose bytes
// after the ID are key and whose hash is h, and the answer's bytes.
func (s *Server) memoLookup(h uint64, key []byte) (memoEntry, []byte, bool) {
	gen := s.gen.Load()
	if e, w, ok := s.memo.table.Load().get(h); ok && e.matches(w, key) && s.valid(&e, w, gen) {
		return e, w, true
	}
	m := &s.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.pending[h]
	if !ok {
		return memoEntry{}, nil, false
	}
	// Pending buffers are only appended to, and a republish starts new
	// ones, so w stays intact after the lock is released.
	w := e.bytes(m.chunks[e.buf])
	if !e.matches(w, key) || !s.valid(&e, w, gen) {
		return memoEntry{}, nil, false
	}
	s.served()
	return e, w, true
}

// memoize stores the answer just computed for the query whose bytes
// after the ID are key and whose hash is h. resp is the encoded response
// after its ID, nil when the query is ignored; zone, serial, deps and gen
// are the validity fields, read before the answer was computed (deps
// during the lookup).
func (s *Server) memoize(h uint64, key, resp []byte, qname dnsmsg.Name, zone *dnszone.Zone, serial uint32, deps *dnszone.Deps, gen uint32) {
	e := memoEntry{
		zone:   zone,
		serial: serial,
		gen:    gen,
		echo:   len(resp) >= len(key) && bytes.Equal(resp[headerTail:len(key)], key[headerTail:]),
	}
	stored := len(resp)
	if e.echo {
		stored += headerTail - len(key)
	} else {
		e.qnameLen = uint8(len(qname))
	}
	var depsBuf [32]byte
	depsBytes := deps.AppendTo(depsBuf[:0])
	if len(key) > math.MaxUint16 || stored > math.MaxUint16 || len(qname) > math.MaxUint8 || len(depsBytes) > math.MaxUint8 {
		return
	}
	e.keyLen, e.respLen, e.depsLen = uint16(len(key)), uint16(stored), uint8(len(depsBytes))

	m := &s.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	w := m.alloc(&e)
	n := copy(w, key)
	if e.echo {
		n += copy(w[n:], resp[:headerTail])
		n += copy(w[n:], resp[len(key):])
	} else {
		n += copy(w[n:], resp)
		n += copy(w[n:], qname)
	}
	copy(w[n:], depsBytes)
	if m.pending == nil {
		// Sized to fill without regrowing while the table doubles, and
		// like the last set once the table has settled.
		m.pending = make(map[uint64]memoEntry, min(2*m.added, len(m.table.Load().entries)))
	}
	m.pending[h] = e
	s.served()
}

// minChunk and maxChunk bound the buffers pending answers' bytes are cut
// from. A buffer is never regrown, so no bytes move before the next
// republish; each new one is twice the last, up to maxChunk.
const minChunk, maxChunk = 512, 64 << 10

// alloc places e's bytes in the pending buffers, setting e.buf and e.off,
// and returns them for the caller to fill. The caller holds mu.
func (m *answerMemo) alloc(e *memoEntry) []byte {
	n := e.size()
	last := len(m.chunks) - 1
	if last < 0 || cap(m.chunks[last])-len(m.chunks[last]) < n {
		size := minChunk
		if last >= 0 {
			size = min(2*cap(m.chunks[last]), maxChunk)
		}
		m.chunks = append(m.chunks, make([]byte, 0, max(size, n)))
		last++
	}
	c := m.chunks[last]
	e.buf, e.off = uint16(last), uint32(len(c))
	m.chunks[last] = c[:len(c)+n]
	return c[len(c) : len(c)+n : len(c)+n]
}

// served counts an answer served under the memo's lock, from the pending
// set or computed afresh, and republishes the table once such answers add
// up to its size: the surviving entries, pending ones included, with
// their bytes packed into one new buffer. The caller holds s.memo.mu.
func (s *Server) served() {
	m := &s.memo
	m.misses++
	t := m.table.Load()
	if m.misses < len(t.entries) {
		return
	}
	// Two passes over the survivors: one sizes the new table exactly, so
	// dropped and replaced entries cost it no space, the other fills it.
	gen := s.gen.Load()
	survivors := func(f func(h uint64, e memoEntry, w []byte)) {
		for h, e := range t.entries {
			if _, replaced := m.pending[h]; replaced {
				continue
			}
			if w := e.bytes(t.wire); s.valid(&e, w, gen) {
				f(h, e, w)
			}
		}
		for h, e := range m.pending {
			if w := e.bytes(m.chunks[e.buf]); s.valid(&e, w, gen) {
				f(h, e, w)
			}
		}
	}
	n, size := 0, 0
	survivors(func(_ uint64, e memoEntry, _ []byte) { n, size = n+1, size+e.size() })
	next := &memoTable{
		entries: make(map[uint64]memoEntry, n),
		wire:    make([]byte, 0, size),
	}
	survivors(func(h uint64, e memoEntry, w []byte) {
		e.buf, e.off, e.gen = 0, uint32(len(next.wire)), gen
		next.wire = append(next.wire, w...)
		next.entries[h] = e
	})
	m.table.Store(next)
	m.added = len(m.pending)
	m.pending = nil
	m.chunks = nil
	m.misses = 0
}
