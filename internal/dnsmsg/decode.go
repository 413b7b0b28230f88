package dnsmsg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"time"
)

// Decode errors.
var (
	ErrShortMessage  = errors.New("dnsmsg: message truncated")
	ErrBadPointer    = errors.New("dnsmsg: invalid compression pointer")
	ErrPointerLoop   = errors.New("dnsmsg: compression pointer loop")
	ErrTrailingBytes = errors.New("dnsmsg: trailing bytes after message")
	ErrUnsupportedRR = errors.New("dnsmsg: unsupported record type")
	ErrRDataLength   = errors.New("dnsmsg: rdata length mismatch")
)

// maxInternedNames caps a Decoder's name-intern table. The simulated
// Internet's name universe is bounded, so a campaign decoder never gets
// near the cap; it exists so adversarial input (the fuzzer) cannot grow
// one decoder without bound.
const maxInternedNames = 1 << 16

// Decoder parses wire-format messages, reusing scratch buffers and an
// intern table of previously seen names across calls. A zero Decoder is
// ready to use; it is not safe for concurrent use (pool one per goroutine
// with AcquireDecoder/ReleaseDecoder).
//
// Interning is what makes steady-state decoding allocation-free: a
// resolver decodes the same owner names, CNAME targets, and NS hostnames
// millions of times per campaign, and each distinct name is materialized
// as a Go string exactly once per decoder.
type Decoder struct {
	buf []byte
	pos int

	names   map[string]Name
	scratch []byte

	// decoded memoizes this message's names by the offset their wire form
	// starts at, so a name that is a bare compression pointer to one of
	// them is a table scan, not a re-walk, re-validation and intern
	// lookup. Capped at maxMemoNames per message to keep the scan short.
	decoded []decodedName

	// Pre-boxed RData values, keyed by content. Storing a concrete rdata
	// struct in the RData interface allocates; a campaign decodes the same
	// few addresses and targets endlessly, so each distinct value is boxed
	// once and reused. MX/TXT are rare enough to box per record.
	aData     map[netip.Addr]RData
	nsData    map[Name]RData
	cnameData map[Name]RData
	// soaData holds each zone's latest boxed SOA, keyed by its names:
	// every negative answer carries its zone's SOA, but a serial bump
	// changes the content, so keying by content would keep every
	// superseded serial alive.
	soaData map[soaKey]RData
}

// soaKey identifies a zone's SOA across serial changes.
type soaKey struct {
	mname, rname Name
}

// decodedName is one memoized name: decoding at off yields name after
// following hops compression pointers.
type decodedName struct {
	off  int
	hops int
	name Name
}

// maxMemoNames caps the per-message memo. A campaign response carries at
// most a dozen or so names; past the cap, names decode the long way.
const maxMemoNames = 32

// decoderPool recycles decoders (and their intern tables) across queries.
var decoderPool = sync.Pool{New: func() any { return new(Decoder) }}

// AcquireDecoder returns a pooled decoder.
func AcquireDecoder() *Decoder { return decoderPool.Get().(*Decoder) }

// ReleaseDecoder returns d to the pool.
func ReleaseDecoder(d *Decoder) { decoderPool.Put(d) }

// Decode parses a wire-format DNS message. Records with unsupported types
// yield ErrUnsupportedRR: the simulated Internet never emits them, so an
// appearance is a corruption worth surfacing rather than skipping.
func Decode(b []byte) (*Message, error) {
	d := AcquireDecoder()
	defer ReleaseDecoder(d)
	m := &Message{}
	if err := d.DecodeInto(b, m); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeInto parses b into m, reusing m's section slices (they are
// truncated and re-filled, so a long-lived caller-owned Message stops
// allocating once its slices have grown to the working-set size). On error
// m holds partially decoded content and must not be used.
func (d *Decoder) DecodeInto(b []byte, m *Message) error {
	return d.decode(b, m, Question{}, false)
}

// DecodeReplyInto is DecodeInto for a reply to a query whose one question
// is q. When the reply carries exactly one question and its bytes are q as
// EncodeQuery writes it, the question is taken from q instead of being
// decoded and interned, and the per-message name memo starts with it, so
// compression pointers to the question's name resolve without a walk.
// The outcome, m and the error alike, is always DecodeInto's: any other
// reply, or a q that decoding would not reproduce (a name with uppercase
// or non-ASCII bytes, or one ParseName would reject), takes the full
// decode.
func (d *Decoder) DecodeReplyInto(b []byte, m *Message, q Question) error {
	return d.decode(b, m, q, true)
}

// decode is DecodeInto, taking the question from echo when hasEcho is set
// and the reply repeats it (see DecodeReplyInto).
func (d *Decoder) decode(b []byte, m *Message, echo Question, hasEcho bool) error {
	d.buf, d.pos = b, 0
	d.decoded = d.decoded[:0]
	m.Questions = m.Questions[:0]
	m.Answers = m.Answers[:0]
	m.Authority = m.Authority[:0]
	m.Additional = m.Additional[:0]

	id, err := d.u16()
	if err != nil {
		return fmt.Errorf("header: %w", err)
	}
	flags, err := d.u16()
	if err != nil {
		return fmt.Errorf("header: %w", err)
	}
	m.Header = Header{
		ID:                 id,
		Response:           flags&(1<<15) != 0,
		Opcode:             Opcode((flags >> 11) & 0xF),
		Authoritative:      flags&(1<<10) != 0,
		Truncated:          flags&(1<<9) != 0,
		RecursionDesired:   flags&(1<<8) != 0,
		RecursionAvailable: flags&(1<<7) != 0,
		RCode:              RCode(flags & 0xF),
	}
	var counts [4]uint16
	for i := range counts {
		if counts[i], err = d.u16(); err != nil {
			return fmt.Errorf("header counts: %w", err)
		}
	}

	i := 0
	if hasEcho && counts[0] == 1 {
		if n, ok := echoedQuestion(b[d.pos:], echo); ok {
			m.Questions = append(m.Questions, echo)
			d.decoded = append(d.decoded, decodedName{off: d.pos, name: echo.Name})
			d.pos += n
			i = 1
		}
	}
	for ; i < int(counts[0]); i++ {
		q, err := d.question()
		if err != nil {
			return fmt.Errorf("question %d: %w", i, err)
		}
		m.Questions = append(m.Questions, q)
	}
	sections := [3]*[]RR{&m.Answers, &m.Authority, &m.Additional}
	names := [3]string{"answer", "authority", "additional"}
	for s, dst := range sections {
		for i := 0; i < int(counts[s+1]); i++ {
			rr, err := d.rr()
			if err != nil {
				return fmt.Errorf("%s %d: %w", names[s], i, err)
			}
			*dst = append(*dst, rr)
		}
	}
	if d.pos != len(d.buf) {
		return fmt.Errorf("%d bytes: %w", len(d.buf)-d.pos, ErrTrailingBytes)
	}
	return nil
}

func (d *Decoder) u8() (uint8, error) {
	if d.pos+1 > len(d.buf) {
		return 0, ErrShortMessage
	}
	v := d.buf[d.pos]
	d.pos++
	return v, nil
}

func (d *Decoder) u16() (uint16, error) {
	if d.pos+2 > len(d.buf) {
		return 0, ErrShortMessage
	}
	v := binary.BigEndian.Uint16(d.buf[d.pos:])
	d.pos += 2
	return v, nil
}

func (d *Decoder) u32() (uint32, error) {
	if d.pos+4 > len(d.buf) {
		return 0, ErrShortMessage
	}
	v := binary.BigEndian.Uint32(d.buf[d.pos:])
	d.pos += 4
	return v, nil
}

func (d *Decoder) take(n int) ([]byte, error) {
	if n < 0 || d.pos+n > len(d.buf) {
		return nil, ErrShortMessage
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b, nil
}

// name reads a possibly-compressed name starting at the current position.
// The raw labels are gathered into the decoder's scratch buffer (dotted,
// as ParseName would see them), normalized, then interned so repeated
// names cost no allocation.
func (d *Decoder) name() (Name, error) {
	start := d.pos
	if n, ok := d.memoized(start); ok {
		d.pos = start + 2
		return n, nil
	}
	next, hops, err := d.readNameScratch(start)
	if err != nil {
		return "", err
	}
	d.pos = next
	n, err := d.normalizeScratch()
	if err == nil && len(d.decoded) < maxMemoNames {
		d.decoded = append(d.decoded, decodedName{off: start, hops: hops, name: n})
	}
	return n, err
}

// memoized returns the name at off when it is a bare compression pointer
// to a name this message already decoded. Walking the pointer would
// re-read exactly the memoized name's labels with one more hop, so the
// memo answers only when that hop stays within readNameScratch's limit; a
// forward or self pointer is left to the walk, which rejects it.
func (d *Decoder) memoized(off int) (Name, bool) {
	if off+2 > len(d.buf) || d.buf[off]&0xC0 != 0xC0 {
		return "", false
	}
	ptr := int(binary.BigEndian.Uint16(d.buf[off:]) & 0x3FFF)
	if ptr >= off {
		return "", false
	}
	for _, m := range d.decoded {
		if m.off == ptr && m.hops < maxPointerHops {
			return m.name, true
		}
	}
	return "", false
}

// normalizeScratch turns the dotted labels readNameScratch gathered into
// a validated, lowercased, interned Name.
func (d *Decoder) normalizeScratch() (Name, error) {
	s := d.scratch
	// ParseName semantics: one trailing dot is accepted and trimmed. A
	// dotted join of wire labels ends with '.' only when the final label
	// itself does.
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	if len(s) == 0 {
		return "", nil
	}

	// Fast path: pure-ASCII names are normalized in place and validated in
	// one scan. Anything with high bytes falls back to ParseName, whose
	// Unicode-aware lowercasing is the historical behaviour.
	ascii := true
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x80 {
			ascii = false
			break
		}
		if c >= 'A' && c <= 'Z' {
			s[i] = c + ('a' - 'A')
		}
	}
	if !ascii {
		return ParseName(string(s))
	}
	if len(s) > 253 {
		return "", fmt.Errorf("parsing %q: %w", s, ErrNameTooLong)
	}
	labelLen := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '.' {
			if labelLen == 0 {
				return "", fmt.Errorf("parsing %q: %w", s, ErrEmptyLabel)
			}
			if labelLen > 63 {
				return "", fmt.Errorf("parsing %q: %w", s, ErrLabelTooLong)
			}
			labelLen = 0
			continue
		}
		labelLen++
	}
	return d.intern(s), nil
}

// intern returns the canonical Name for the normalized bytes in s,
// allocating the backing string only on first sight.
func (d *Decoder) intern(s []byte) Name {
	if n, ok := d.names[string(s)]; ok {
		return n
	}
	if d.names == nil || len(d.names) >= maxInternedNames {
		d.names = make(map[string]Name)
	}
	n := Name(s)
	d.names[string(n)] = n
	return n
}

// maxPointerHops bounds the compression pointers one name may follow:
// more than any legal message needs.
const maxPointerHops = 64

// readNameScratch walks labels and compression pointers from off into
// d.scratch as a dotted string, returning the offset just past the name's
// in-place representation and the number of pointers followed.
func (d *Decoder) readNameScratch(off int) (next, hops int, err error) {
	buf := d.buf
	d.scratch = d.scratch[:0]
	next = -1
	for {
		if off >= len(buf) {
			return 0, 0, ErrShortMessage
		}
		b := buf[off]
		switch {
		case b == 0:
			if next < 0 {
				next = off + 1
			}
			return next, hops, nil
		case b&0xC0 == 0xC0:
			if off+2 > len(buf) {
				return 0, 0, ErrShortMessage
			}
			ptr := int(binary.BigEndian.Uint16(buf[off:]) & 0x3FFF)
			if next < 0 {
				next = off + 2
			}
			if ptr >= off {
				return 0, 0, fmt.Errorf("pointer to %d at %d: %w", ptr, off, ErrBadPointer)
			}
			hops++
			if hops > maxPointerHops {
				return 0, 0, ErrPointerLoop
			}
			off = ptr
		case b&0xC0 != 0:
			return 0, 0, fmt.Errorf("label tag %#x: %w", b, ErrBadPointer)
		default:
			l := int(b)
			if off+1+l > len(buf) {
				return 0, 0, ErrShortMessage
			}
			if len(d.scratch) > 0 {
				d.scratch = append(d.scratch, '.')
			}
			d.scratch = append(d.scratch, buf[off+1:off+1+l]...)
			off += 1 + l
		}
	}
}

// echoedQuestion reports whether w starts with q written uncompressed, as
// EncodeQuery writes it, in a form that decoding returns as q itself: a
// name ParseName leaves unchanged, in ASCII without uppercase letters. It
// returns the question's length in w.
func echoedQuestion(w []byte, q Question) (int, bool) {
	name := string(q.Name)
	if len(name) > 253 {
		return 0, false
	}
	off := 0
	for rest := name; rest != ""; {
		label := rest
		if i := strings.IndexByte(rest, '.'); i >= 0 {
			label, rest = rest[:i], rest[i+1:]
			if rest == "" {
				return 0, false // a trailing dot
			}
		} else {
			rest = ""
		}
		if len(label) == 0 || len(label) > 63 || off+1+len(label) > len(w) ||
			int(w[off]) != len(label) || string(w[off+1:off+1+len(label)]) != label {
			return 0, false
		}
		for i := 0; i < len(label); i++ {
			if c := label[i]; c >= 0x80 || ('A' <= c && c <= 'Z') {
				return 0, false
			}
		}
		off += 1 + len(label)
	}
	if off+5 > len(w) || w[off] != 0 ||
		binary.BigEndian.Uint16(w[off+1:]) != uint16(q.Type) ||
		binary.BigEndian.Uint16(w[off+3:]) != uint16(q.Class) {
		return 0, false
	}
	return off + 5, true
}

func (d *Decoder) question() (Question, error) {
	n, err := d.name()
	if err != nil {
		return Question{}, err
	}
	t, err := d.u16()
	if err != nil {
		return Question{}, err
	}
	c, err := d.u16()
	if err != nil {
		return Question{}, err
	}
	return Question{Name: n, Type: Type(t), Class: Class(c)}, nil
}

func (d *Decoder) rr() (RR, error) {
	name, err := d.name()
	if err != nil {
		return RR{}, err
	}
	t, err := d.u16()
	if err != nil {
		return RR{}, err
	}
	class, err := d.u16()
	if err != nil {
		return RR{}, err
	}
	ttl, err := d.u32()
	if err != nil {
		return RR{}, err
	}
	rdlen, err := d.u16()
	if err != nil {
		return RR{}, err
	}
	end := d.pos + int(rdlen)
	if end > len(d.buf) {
		return RR{}, ErrShortMessage
	}

	var data RData
	switch Type(t) {
	case TypeA:
		raw, err := d.take(4)
		if err != nil {
			return RR{}, err
		}
		addr := netip.AddrFrom4([4]byte(raw))
		if v, ok := d.aData[addr]; ok {
			data = v
		} else {
			if d.aData == nil || len(d.aData) >= maxInternedNames {
				d.aData = make(map[netip.Addr]RData)
			}
			data = AData{Addr: addr}
			d.aData[addr] = data
		}
	case TypeNS:
		host, err := d.name()
		if err != nil {
			return RR{}, err
		}
		if v, ok := d.nsData[host]; ok {
			data = v
		} else {
			if d.nsData == nil || len(d.nsData) >= maxInternedNames {
				d.nsData = make(map[Name]RData)
			}
			data = NSData{Host: host}
			d.nsData[host] = data
		}
	case TypeCNAME:
		target, err := d.name()
		if err != nil {
			return RR{}, err
		}
		if v, ok := d.cnameData[target]; ok {
			data = v
		} else {
			if d.cnameData == nil || len(d.cnameData) >= maxInternedNames {
				d.cnameData = make(map[Name]RData)
			}
			data = CNAMEData{Target: target}
			d.cnameData[target] = data
		}
	case TypeSOA:
		var soa SOAData
		if soa.MName, err = d.name(); err != nil {
			return RR{}, err
		}
		if soa.RName, err = d.name(); err != nil {
			return RR{}, err
		}
		if soa.Serial, err = d.u32(); err != nil {
			return RR{}, err
		}
		if soa.Refresh, err = d.u32(); err != nil {
			return RR{}, err
		}
		if soa.Retry, err = d.u32(); err != nil {
			return RR{}, err
		}
		if soa.Expire, err = d.u32(); err != nil {
			return RR{}, err
		}
		if soa.Minimum, err = d.u32(); err != nil {
			return RR{}, err
		}
		key := soaKey{soa.MName, soa.RName}
		if v, ok := d.soaData[key]; ok && v.(SOAData) == soa {
			data = v
		} else {
			if d.soaData == nil || len(d.soaData) >= maxInternedNames {
				d.soaData = make(map[soaKey]RData)
			}
			data = soa
			d.soaData[key] = data
		}
	case TypeMX:
		pref, err := d.u16()
		if err != nil {
			return RR{}, err
		}
		host, err := d.name()
		if err != nil {
			return RR{}, err
		}
		data = MXData{Preference: pref, Host: host}
	case TypeTXT:
		var txt TXTData
		for d.pos < end {
			l, err := d.u8()
			if err != nil {
				return RR{}, err
			}
			s, err := d.take(int(l))
			if err != nil {
				return RR{}, err
			}
			txt.Strings = append(txt.Strings, string(s))
		}
		data = txt
	case TypeAAAA:
		raw, err := d.take(16)
		if err != nil {
			return RR{}, err
		}
		addr := netip.AddrFrom16([16]byte(raw))
		if v, ok := d.aData[addr]; ok {
			data = v
		} else {
			if d.aData == nil || len(d.aData) >= maxInternedNames {
				d.aData = make(map[netip.Addr]RData)
			}
			data = AAAAData{Addr: addr}
			d.aData[addr] = data
		}
	default:
		return RR{}, fmt.Errorf("type %s: %w", Type(t), ErrUnsupportedRR)
	}

	if d.pos != end {
		return RR{}, fmt.Errorf("%s at %s: %w", Type(t), name, ErrRDataLength)
	}
	// RFC 2181 §8: a TTL with the most significant bit set is treated as
	// zero. Clamping here keeps decoding canonical (decode∘encode is the
	// identity on decoded messages).
	if ttl > maxTTLSeconds {
		ttl = 0
	}
	return RR{
		Name:  name,
		Class: Class(class),
		TTL:   time.Duration(ttl) * time.Second,
		Data:  data,
	}, nil
}
