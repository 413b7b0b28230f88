package dnszone

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"rrdps/internal/dnsmsg"
)

// TestRandomOpsQuick drives a zone through random add/set/remove sequences
// and checks invariants after every operation: lookups never panic, Answer
// results agree with Get, the serial strictly increases across mutations,
// and the incrementally kept node counts equal a from-scratch rebuild.
func TestRandomOpsQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	labels := []string{"www", "mail", "dev", "a.b", "deep.er.sub"}
	name := func(i int) dnsmsg.Name {
		return dnsmsg.MustParseName(labels[i%len(labels)] + ".example.com")
	}
	f := func(ops []byte) bool {
		z := New("example.com", dnsmsg.SOAData{MName: "ns1.example.com", RName: "r", Serial: 1})
		lastSerial := z.Serial()
		for i, op := range ops {
			n := name(int(op))
			switch op % 4 {
			case 0:
				addr := netip.AddrFrom4([4]byte{10, 0, byte(i), byte(op)})
				z.MustAdd(dnsmsg.NewA(n, time.Minute, addr))
			case 1:
				addr := netip.AddrFrom4([4]byte{10, 1, byte(i), byte(op)})
				if err := z.Set(n, dnsmsg.TypeA, dnsmsg.NewA(n, time.Minute, addr)); err != nil {
					return false
				}
			case 2:
				z.Remove(n, dnsmsg.TypeA)
			case 3:
				z.RemoveName(n)
			}
			if s := z.Serial(); s <= lastSerial {
				return false
			} else {
				lastSerial = s
			}
			if !reflect.DeepEqual(z.below, rebuiltCounts(z)) {
				t.Logf("after op %d: counts %v, rebuilt %v", i, z.below, rebuiltCounts(z))
				return false
			}
			// Lookup/Get consistency for every known name.
			for j := range labels {
				q := name(j)
				res := z.Lookup(q, dnsmsg.TypeA)
				got := z.Get(q, dnsmsg.TypeA)
				switch res.Kind {
				case KindAnswer:
					if len(got) == 0 || len(res.Records) != len(got) {
						return false
					}
				case KindNXDomain, KindNoData:
					if len(got) != 0 {
						return false
					}
				}
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 150,
		Rand:     rng,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			ops := make([]byte, r.Intn(24)+1)
			r.Read(ops)
			vals[0] = reflect.ValueOf(ops)
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// rebuiltCounts recomputes z.below from the owner names alone.
func rebuiltCounts(z *Zone) map[dnsmsg.Name]int32 {
	want := make(map[dnsmsg.Name]int32)
	for owner := range z.rrsets {
		for n := owner; ; n = n.Parent() {
			want[n]++
			if n == z.origin {
				break
			}
		}
	}
	return want
}

// TestDelegationNeverShadowsApex: adding arbitrary delegations below the
// apex never changes apex lookups.
func TestDelegationNeverShadowsApex(t *testing.T) {
	z := New("example.com", dnsmsg.SOAData{MName: "ns1", RName: "r", Serial: 1})
	apexAddr := netip.MustParseAddr("10.0.0.1")
	z.MustAdd(dnsmsg.NewA("example.com", time.Minute, apexAddr))
	for i := 0; i < 20; i++ {
		sub := dnsmsg.MustParseName(fmt.Sprintf("child%d.example.com", i))
		z.MustAdd(dnsmsg.NewNS(sub, time.Hour, "ns.elsewhere.net"))
		res := z.Lookup("example.com", dnsmsg.TypeA)
		if res.Kind != KindAnswer || res.Records[0].Data.(dnsmsg.AData).Addr != apexAddr {
			t.Fatalf("apex lookup broke after %d delegations: %+v", i+1, res)
		}
	}
}
