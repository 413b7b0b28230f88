package dnszone

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"rrdps/internal/dnsmsg"
)

// Zone-file export in the RFC 1035 presentation format (one record per
// line, an `$ORIGIN` directive, names relative to the origin unless they
// end with a dot), so operators can inspect a zone (worldgen -dump-zone).

// WriteText renders the zone in presentation format: $ORIGIN and SOA
// first, then every record sorted by name and type. (Not named WriteTo:
// that name is reserved by the io.WriterTo convention, whose signature
// returns the byte count, and go vet flags the mismatch.)
func (z *Zone) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "$ORIGIN %s.\n", z.Origin())
	fmt.Fprintf(bw, "%s\n", presentRR(z.SOA(), z.Origin()))
	for _, name := range z.Names() {
		for _, t := range []dnsmsg.Type{
			dnsmsg.TypeNS, dnsmsg.TypeA, dnsmsg.TypeAAAA,
			dnsmsg.TypeCNAME, dnsmsg.TypeMX, dnsmsg.TypeTXT,
		} {
			for _, rr := range z.Get(name, t) {
				fmt.Fprintf(bw, "%s\n", presentRR(rr, z.Origin()))
			}
		}
	}
	return bw.Flush()
}

// presentRR renders one record with names relative to origin where
// possible.
func presentRR(rr dnsmsg.RR, origin dnsmsg.Name) string {
	rel := func(n dnsmsg.Name) string {
		switch {
		case n == origin:
			return "@"
		case n.IsSubdomainOf(origin) && origin != "":
			return strings.TrimSuffix(string(n), "."+string(origin))
		default:
			return n.String() + "."
		}
	}
	ttl := int(rr.TTL / time.Second)
	switch d := rr.Data.(type) {
	case dnsmsg.AData:
		return fmt.Sprintf("%s %d IN A %s", rel(rr.Name), ttl, d.Addr)
	case dnsmsg.AAAAData:
		return fmt.Sprintf("%s %d IN AAAA %s", rel(rr.Name), ttl, d.Addr)
	case dnsmsg.NSData:
		return fmt.Sprintf("%s %d IN NS %s", rel(rr.Name), ttl, rel(d.Host))
	case dnsmsg.CNAMEData:
		return fmt.Sprintf("%s %d IN CNAME %s", rel(rr.Name), ttl, rel(d.Target))
	case dnsmsg.MXData:
		return fmt.Sprintf("%s %d IN MX %d %s", rel(rr.Name), ttl, d.Preference, rel(d.Host))
	case dnsmsg.TXTData:
		parts := make([]string, len(d.Strings))
		for i, s := range d.Strings {
			parts[i] = strconv.Quote(s)
		}
		return fmt.Sprintf("%s %d IN TXT %s", rel(rr.Name), ttl, strings.Join(parts, " "))
	case dnsmsg.SOAData:
		return fmt.Sprintf("%s %d IN SOA %s %s %d %d %d %d %d",
			rel(rr.Name), ttl, rel(d.MName), rel(d.RName),
			d.Serial, d.Refresh, d.Retry, d.Expire, d.Minimum)
	default:
		return fmt.Sprintf("; unsupported record at %s", rr.Name)
	}
}
