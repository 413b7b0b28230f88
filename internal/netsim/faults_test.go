package netsim

import (
	"errors"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"rrdps/internal/dethash"
	"rrdps/internal/simtime"
)

func faultEndpoint(i int) Endpoint {
	return Endpoint{Addr: netip.AddrFrom4([4]byte{203, 0, byte(i >> 8), byte(i)}), Port: PortDNS}
}

// TestFaultDecisionsDeterministic: the plan is a pure function of its
// inputs — repeating a decision, in any order, yields the same outcome.
func TestFaultDecisionsDeterministic(t *testing.T) {
	fc := FaultConfig{Seed: 11, LossRate: 0.3, BurstRate: 0.4, FlakyRate: 0.3, CorruptRate: 0.1}.withDefaults()
	now := time.Unix(1_000_000, 0)

	type key struct {
		ep      int
		payload string
	}
	first := make(map[key]faultOutcome)
	for round := 0; round < 3; round++ {
		for i := 0; i < 50; i++ {
			for j := 0; j < 4; j++ {
				k := key{i, fmt.Sprintf("payload-%d", j)}
				got := fc.decide(now, faultEndpoint(i), []byte(k.payload))
				if round == 0 {
					first[k] = got
				} else if got != first[k] {
					t.Fatalf("decision for %+v changed across rounds: %+v vs %+v", k, got, first[k])
				}
			}
		}
	}
}

// TestFaultUniformLossRate: the seeded uniform loss hits roughly its
// configured fraction of distinct payloads.
func TestFaultUniformLossRate(t *testing.T) {
	fc := FaultConfig{Seed: 7, LossRate: 0.2}.withDefaults()
	now := time.Unix(0, 0)
	ep := faultEndpoint(1)
	drops := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if fc.decide(now, ep, []byte(fmt.Sprintf("q-%d", i))).drop {
			drops++
		}
	}
	rate := float64(drops) / n
	if rate < 0.15 || rate > 0.25 {
		t.Fatalf("uniform drop rate = %.3f, want ≈ 0.2", rate)
	}
}

// TestBurstWindows: bursts are windows of simulation time — inside a burst
// window the drop rate jumps to roughly BurstLoss, outside it stays zero.
func TestBurstWindows(t *testing.T) {
	fc := FaultConfig{Seed: 3, BurstRate: 0.5}.withDefaults()
	ep := faultEndpoint(2)

	burstWindows, quietWindows := 0, 0
	for win := 0; win < 40; win++ {
		now := time.Unix(0, 0).Add(time.Duration(win)*fc.BurstWindow + time.Minute)
		drops := 0
		const n = 400
		for i := 0; i < n; i++ {
			if fc.decide(now, ep, []byte(fmt.Sprintf("q-%d", i))).drop {
				drops++
			}
		}
		switch {
		case drops == 0:
			quietWindows++
		case float64(drops)/n > 0.5:
			burstWindows++
		default:
			t.Fatalf("window %d: drop rate %.3f is neither quiet nor a burst", win, float64(drops)/n)
		}
	}
	if burstWindows == 0 || quietWindows == 0 {
		t.Fatalf("bursts %d, quiet %d: want both kinds of window", burstWindows, quietWindows)
	}
}

// TestFlakyEndpoints: only the configured fraction of endpoints is flaky,
// and a flaky endpoint alternates between clean and lossy windows while a
// healthy endpoint never drops.
func TestFlakyEndpoints(t *testing.T) {
	fc := FaultConfig{Seed: 5, FlakyRate: 0.3}.withDefaults()

	flaky, healthy := -1, -1
	for i := 0; i < 100 && (flaky < 0 || healthy < 0); i++ {
		if fc.FlakyEndpoint(faultEndpoint(i)) {
			if flaky < 0 {
				flaky = i
			}
		} else if healthy < 0 {
			healthy = i
		}
	}
	if flaky < 0 || healthy < 0 {
		t.Fatalf("flaky=%d healthy=%d: want one of each among 100 endpoints", flaky, healthy)
	}

	badWindows, cleanWindows := 0, 0
	for win := 0; win < 40; win++ {
		now := time.Unix(0, 0).Add(time.Duration(win)*fc.FlakyWindow + time.Minute)
		drops := 0
		const n = 200
		for i := 0; i < n; i++ {
			payload := []byte(fmt.Sprintf("q-%d", i))
			if fc.decide(now, faultEndpoint(healthy), payload).drop {
				t.Fatalf("healthy endpoint dropped a send in window %d", win)
			}
			if fc.decide(now, faultEndpoint(flaky), payload).drop {
				drops++
			}
		}
		if float64(drops)/n > 0.5 {
			badWindows++
		} else if drops == 0 {
			cleanWindows++
		}
	}
	if badWindows == 0 || cleanWindows == 0 {
		t.Fatalf("bad %d, clean %d: flaky endpoint should alternate", badWindows, cleanWindows)
	}
}

// TestCorruptRepliesTruncated: corrupted deliveries arrive truncated below
// a DNS header.
func TestCorruptRepliesTruncated(t *testing.T) {
	n := New(Config{Clock: simtime.NewSimulated()})
	n.SetFaults(FaultConfig{Seed: 2, CorruptRate: 1})
	ep := faultEndpoint(3)
	n.Register(ep, RegionVirginia, HandlerFunc(func(req Request) ([]byte, error) {
		return []byte("a full-size reply that would decode"), nil
	}))

	resp, err := n.Send(testClient, RegionOregon, ep, []byte("query"))
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	if len(resp) >= 12 {
		t.Fatalf("corrupt reply is %d bytes, want < 12 (below a DNS header)", len(resp))
	}
}

// TestFaultDropsFollowPlan: injected drops surface as ErrTimeout on
// exactly the sends the installed plan drops, and count as drops.
func TestFaultDropsFollowPlan(t *testing.T) {
	clock := simtime.NewSimulated()
	n := New(Config{Clock: clock})
	n.SetFaults(FaultConfig{Seed: 9, LossRate: 0.5})
	ep := faultEndpoint(4)
	n.Register(ep, RegionVirginia, echoHandler("srv"))

	timeouts := 0
	for i := 0; i < 200; i++ {
		payload := []byte(fmt.Sprintf("q-%d", i))
		_, err := n.Send(testClient, RegionOregon, ep, payload)
		if err != nil && !errors.Is(err, ErrTimeout) {
			t.Fatalf("Send: %v, want ErrTimeout", err)
		}
		if dropped := n.faults.Load().decide(clock.Now(), ep, payload).drop; dropped != (err != nil) {
			t.Fatalf("send %d: err %v, plan drops it: %v", i, err, dropped)
		}
		if err != nil {
			timeouts++
		}
	}
	if timeouts == 0 {
		t.Fatal("no injected drops at LossRate 0.5")
	}
	if _, drops := n.Stats(); drops != uint64(timeouts) {
		t.Fatalf("drops = %d, want %d", drops, timeouts)
	}
}

// TestSetFaultsZeroDisables: installing a zero config removes the plan.
func TestSetFaultsZeroDisables(t *testing.T) {
	n := New(Config{Clock: simtime.NewSimulated()})
	n.SetFaults(FaultConfig{Seed: 9, LossRate: 0.9})
	n.SetFaults(FaultConfig{})
	ep := faultEndpoint(5)
	n.Register(ep, RegionVirginia, echoHandler("srv"))
	for i := 0; i < 100; i++ {
		if _, err := n.Send(testClient, RegionOregon, ep, []byte(fmt.Sprintf("q-%d", i))); err != nil {
			t.Fatalf("Send with faults disabled: %v", err)
		}
	}
}

// TestRetryRerollsFaultDecision: a different payload (as a retry with a
// fresh query ID produces) re-rolls the drop decision — some payload that
// was dropped has a sibling that is delivered.
func TestRetryRerollsFaultDecision(t *testing.T) {
	fc := FaultConfig{Seed: 13, LossRate: 0.3}.withDefaults()
	now := time.Unix(0, 0)
	ep := faultEndpoint(6)
	for i := 0; i < 200; i++ {
		if fc.decide(now, ep, []byte(fmt.Sprintf("q-%d-attempt-1", i))).drop &&
			!fc.decide(now, ep, []byte(fmt.Sprintf("q-%d-attempt-2", i))).drop {
			return
		}
	}
	t.Fatal("no dropped first attempt had a delivered second attempt in 200 tries")
}

// FlakyEndpoint reports whether the plan marks ep flaky.
func (fc FaultConfig) FlakyEndpoint(ep Endpoint) bool {
	return fc.FlakyRate > 0 && dethash.Unit(faultHash(fc.Seed, saltFlakyEndpoint, ep, 0, nil)) < fc.FlakyRate
}
