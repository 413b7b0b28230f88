package dnsmsg

import (
	"bufio"
	"bytes"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// replyQuestions are the questions the differential test pairs replies
// with: canonical ones, and ones decoding would not reproduce (uppercase,
// non-ASCII, a trailing dot, an empty or over-long label), which must
// take the full decode.
var replyQuestions = []Question{
	{Name: "www.example.com", Type: TypeA, Class: ClassIN},
	{Name: "www.example.com", Type: TypeAAAA, Class: ClassIN},
	{Name: "example.com", Type: TypeNS, Class: ClassIN},
	{Name: "", Type: TypeNS, Class: ClassIN},
	{Name: "com", Type: TypeSOA, Class: ClassIN},
	{Name: "www.example.com", Type: TypeA, Class: Class(3)},
	{Name: "WWW.example.com", Type: TypeA, Class: ClassIN},
	{Name: "www.exämple.com", Type: TypeA, Class: ClassIN},
	{Name: "www.example.com.", Type: TypeA, Class: ClassIN},
	{Name: "www..example.com", Type: TypeA, Class: ClassIN},
	{Name: ".example.com", Type: TypeA, Class: ClassIN},
	{Name: Name(strings.Repeat("a", 64) + ".com"), Type: TypeA, Class: ClassIN},
	{Name: Name(strings.Repeat("abcdefg.", 32) + "com"), Type: TypeA, Class: ClassIN},
}

// replyFor is a server-shaped reply to q: its question echoed, answers
// whose owner names compress to it, and authority and glue beside.
func replyFor(q Question) []byte {
	m := NewResponse(&Message{Header: Header{ID: 77, RecursionDesired: true}, Questions: []Question{q}}, RCodeNoError)
	m.Header.Authoritative = true
	m.Answers = []RR{
		NewCNAME(q.Name, time.Minute, "edge.cdn.example.net"),
		NewA("edge.cdn.example.net", time.Minute, netip.MustParseAddr("192.0.2.7")),
	}
	m.Authority = []RR{NewNS("example.com", time.Hour, "ns1.example.com")}
	m.Additional = []RR{NewA("ns1.example.com", time.Hour, netip.MustParseAddr("192.0.2.53"))}
	b, err := Encode(m)
	if err != nil {
		return nil
	}
	return b
}

// fuzzCorpus returns the FuzzDecode seed inputs and its checked-in corpus.
func fuzzCorpus(t *testing.T) [][]byte {
	t.Helper()
	inputs := [][]byte{
		MustEncode(sampleMessage()),
		MustEncode(NewQuery(7, "www.example.com", TypeA)),
		{},
		{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 0x0C, 0, 1, 0, 1},
	}
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecode", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(bytes.NewReader(raw))
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "[]byte(") {
				continue
			}
			s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "[]byte("), ")"))
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			inputs = append(inputs, []byte(s))
		}
	}
	return inputs
}

// TestDecodeReplyMatchesDecode checks DecodeReplyInto against DecodeInto
// on the FuzzDecode corpus, on server-shaped replies, and on mutations of
// both: the same message and the same error for every question.
func TestDecodeReplyMatchesDecode(t *testing.T) {
	inputs := fuzzCorpus(t)
	for _, q := range replyQuestions {
		if b := replyFor(q); b != nil {
			inputs = append(inputs, b)
		}
	}
	rng := rand.New(rand.NewSource(14))
	base := len(inputs)
	for i := 0; i < base; i++ {
		b := inputs[i]
		for j := 0; j < 40 && len(b) > 0; j++ {
			m := append([]byte(nil), b...)
			switch j % 4 {
			case 0: // flip one byte, header and question included
				m[rng.Intn(len(m))] ^= byte(1 + rng.Intn(255))
			case 1: // a byte in the question, where the fast path decides
				if len(m) > 12 {
					k := 12 + rng.Intn(min(len(m)-12, 24))
					m[k] = byte(rng.Intn(256))
				}
			case 2: // truncate
				m = m[:rng.Intn(len(m))]
			case 3: // another question count
				if len(m) >= 6 {
					m[5] = byte(rng.Intn(3))
				}
			}
			inputs = append(inputs, m)
		}
	}

	var full, fast Decoder
	checked, echoed := 0, 0
	for _, b := range inputs {
		questions := replyQuestions
		if q, ok := firstQuestion(b); ok {
			questions = append(questions[:len(questions):len(questions)], q)
		}
		for _, q := range questions {
			var want, got Message
			wantErr := full.DecodeInto(b, &want)
			gotErr := fast.DecodeReplyInto(b, &got, q)
			if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
				t.Fatalf("reply %x, question %v: error %v, want %v", b, q, gotErr, wantErr)
			}
			if wantErr == nil && !reflect.DeepEqual(want, got) {
				t.Fatalf("reply %x, question %v:\n got %v\nwant %v", b, q, &got, &want)
			}
			if _, ok := echoedQuestion(b[min(len(b), 12):], q); ok && len(b) >= 12 && b[4] == 0 && b[5] == 1 {
				echoed++
			}
			checked++
		}
	}
	if echoed == 0 {
		t.Fatalf("none of %d cases took the echoed-question path", checked)
	}
	t.Logf("%d cases, %d with the question taken from the query", checked, echoed)
}

// firstQuestion decodes b's first question, if it has one.
func firstQuestion(b []byte) (Question, bool) {
	m, err := Decode(b)
	if err != nil || len(m.Questions) == 0 {
		return Question{}, false
	}
	return m.Questions[0], true
}

func BenchmarkDecodeReply(b *testing.B) {
	q := Question{Name: "www.example.com", Type: TypeA, Class: ClassIN}
	wire := replyFor(q)
	var d Decoder
	var m Message
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := d.DecodeReplyInto(wire, &m, q); err != nil {
			b.Fatal(err)
		}
	}
}
