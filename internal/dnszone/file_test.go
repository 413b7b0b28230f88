package dnszone

import (
	"bytes"
	"testing"
	"time"

	"rrdps/internal/dnsmsg"
)

// TestWriteTextExact pins WriteText's output byte for byte: $ORIGIN and
// SOA first (with the serial every Add bumped), then names sorted as
// full names, so the apex sorts between its subdomains, with each
// name's records in NS, A, AAAA, CNAME, MX, TXT order; in-zone names are
// written relative to the origin and out-of-zone names absolute.
func TestWriteTextExact(t *testing.T) {
	z := New("example.com", dnsmsg.SOAData{
		MName: "ns1.example.com", RName: "hostmaster.example.com", Serial: 6,
		Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300,
	})
	z.MustAdd(dnsmsg.NewTXT("example.com", time.Minute, "v=spf1 -all", `say "hi"`))
	z.MustAdd(dnsmsg.NewMX("example.com", time.Hour, 10, "mail.example.com"))
	z.MustAdd(dnsmsg.NewNS("example.com", 24*time.Hour, "ns1.example.com"))
	z.MustAdd(dnsmsg.NewNS("example.com", 24*time.Hour, "ns2.elsewhere.net"))
	z.MustAdd(dnsmsg.NewA("www.example.com", 5*time.Minute, addr("10.0.0.80")))
	z.MustAdd(dnsmsg.NewA("www.example.com", 5*time.Minute, addr("10.0.0.81")))
	z.MustAdd(dnsmsg.NewCNAME("blog.example.com", 10*time.Minute, "www.example.com"))
	z.MustAdd(dnsmsg.NewCNAME("cdn.example.com", 10*time.Minute, "example.edge.net"))
	z.MustAdd(dnsmsg.RR{Name: "v6.example.com", Class: dnsmsg.ClassIN, TTL: 10 * time.Minute,
		Data: dnsmsg.AAAAData{Addr: addr("2001:db8::1")}})
	z.MustAdd(dnsmsg.NewA("ns1.example.com", 24*time.Hour, addr("10.0.0.53")))

	var buf bytes.Buffer
	if err := z.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	const want = `$ORIGIN example.com.
@ 900 IN SOA ns1 hostmaster 16 7200 3600 1209600 300
blog 600 IN CNAME www
cdn 600 IN CNAME example.edge.net.
@ 86400 IN NS ns1
@ 86400 IN NS ns2.elsewhere.net.
@ 3600 IN MX 10 mail
@ 60 IN TXT "v=spf1 -all" "say \"hi\""
ns1 86400 IN A 10.0.0.53
v6 600 IN AAAA 2001:db8::1
www 300 IN A 10.0.0.80
www 300 IN A 10.0.0.81
`
	if got := buf.String(); got != want {
		t.Errorf("WriteText:\n%s\nwant:\n%s", got, want)
	}
}
