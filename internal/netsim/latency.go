package netsim

import (
	"fmt"
	"math"
	"net/netip"
	"time"
)

// Latency model parameters. The absolute values are loose approximations
// of real-world RTTs; what matters for the resolver's latency-adaptive
// selection is that they are ordinally correct — a Tokyo PoP answers an
// Oregon vantage slower than a Virginia one — and fully deterministic.
const (
	// latencyBase is the fixed per-exchange cost (serialization, stack
	// traversal) independent of distance.
	latencyBase = 2 * time.Millisecond
	// latencyPerUnit converts planar region distance to propagation delay.
	latencyPerUnit = 700 * time.Microsecond
	// latencyUnknown is the propagation charge when either region is
	// unplaced (Distance returns +Inf).
	latencyUnknown = 250 * time.Millisecond
)

// rttFor returns the round-trip time the fabric charges for an exchange
// between fromRegion and the PoP in popRegion. It is a pure function of
// the two regions — deliberately jitter-free. The resolver folds observed
// RTTs into per-server EWMA estimates at pass boundaries; a constant
// per-(vantage, PoP) RTT makes that fold insensitive to how many
// duplicates of a logical query raced or which of a server's queries
// happened to succeed, which is what keeps latency-adaptive selection
// inside the serial≡parallel guarantee.
func rttFor(fromRegion, popRegion Region) time.Duration {
	prop := latencyUnknown
	if d := Distance(fromRegion, popRegion); d != math.MaxFloat64 {
		prop = time.Duration(d * float64(latencyPerUnit))
	}
	return latencyBase + prop
}

// BufferedHandler is implemented by handlers that can encode their
// response into a caller-supplied buffer, sparing the fabric's hot path a
// response allocation per query. ServeNetBuf appends the response to dst
// (which may be nil) and returns the extended slice; the same nil-response
// convention as ServeNet applies.
type BufferedHandler interface {
	Handler
	ServeNetBuf(req Request, dst []byte) ([]byte, error)
}

// Exchange is Send plus the latency model and zero-copy delivery: the
// response is appended to dst (which may be nil) and the returned slice is
// always caller-owned — buffered handlers encode straight into it, and
// other handlers' responses are copied in — so clients can recycle one
// receive buffer across exchanges. The deterministic RTT for the exchange
// is returned alongside. A timed-out or failed exchange reports zero RTT —
// the caller knows only that no reply arrived within its patience, and the
// retry policy charges its own timeout penalty.
func (n *Network) Exchange(from netip.Addr, fromRegion Region, to Endpoint, payload, dst []byte) ([]byte, time.Duration, error) {
	n.sends.Add(1)
	var outcome faultOutcome
	if fc := n.faults.Load(); fc.Enabled() {
		outcome = fc.decide(n.clock.Now(), to, payload)
		if outcome.drop {
			n.drops.Add(1)
			switch outcome.cause {
			case saltUniform:
				n.uniformDrops.Add(1)
			case saltBurstDrop:
				n.burstDrops.Add(1)
			case saltFlakyDrop:
				n.flakyDrops.Add(1)
			}
			return nil, 0, &sendError{op: opSend, to: to, err: ErrTimeout}
		}
		if outcome.corrupt {
			n.corrupted.Add(1)
		}
	}
	var rt *route
	st := n.lookup(to)
	if st != nil {
		rt = st.route.Load()
	}
	if rt == nil || len(rt.instances) == 0 {
		return nil, 0, &sendError{op: opSend, to: to, err: ErrUnreachable}
	}
	if rt.blackholed {
		n.drops.Add(1)
		return nil, 0, &sendError{op: opSend, to: to, err: ErrTimeout}
	}
	now := n.clock.Now()
	if rt.limit != nil && !rt.limit.admit(from, now) {
		// Rate-limited: the server drops the query without answering, so
		// the client sees the same timeout an injected loss produces.
		n.drops.Add(1)
		n.limitDrops.Add(1)
		return nil, 0, &sendError{op: opSend, to: to, err: ErrTimeout}
	}
	inst := rt.pick(fromRegion)
	st.served(inst.region)

	req := Request{
		From:       from,
		FromRegion: fromRegion,
		To:         to,
		PoPRegion:  inst.region,
		Payload:    payload,
		Time:       now,
	}
	var resp []byte
	var err error
	if bh, ok := inst.handler.(BufferedHandler); ok {
		resp, err = bh.ServeNetBuf(req, dst[:0])
	} else {
		resp, err = inst.handler.ServeNet(req)
		if resp != nil {
			// Take ownership: the handler may share (or later reuse) its
			// slice, and the caller will recycle what we return.
			resp = append(dst[:0], resp...)
		}
	}
	if err != nil {
		return nil, 0, &sendError{op: opServe, to: to, err: err}
	}
	if resp == nil {
		// The handler silently ignored the request; the client observes a
		// timeout, exactly like querying a DPS nameserver for a domain it
		// no longer serves.
		return nil, 0, &sendError{op: opNoAnswer, to: to, err: ErrTimeout}
	}
	rtt := rttFor(fromRegion, inst.region)
	if outcome.corrupt {
		// The response sits in a caller-owned buffer; truncate in place.
		keep := len(resp) / 2
		if keep > 7 {
			keep = 7
		}
		return resp[:keep], rtt, nil
	}
	return resp, rtt, nil
}

// Exchange failure contexts; each prefixes the endpoint in the message.
const (
	opSend     = "sending to"
	opServe    = "serving"
	opNoAnswer = "no answer from"
)

// sendError is a failed exchange: what failed (op), where, and the cause,
// which errors.Is matches through Unwrap. The message is formatted only
// when read, since on a lossy fabric most timeouts are matched and
// dropped by a retry loop.
type sendError struct {
	op  string
	to  Endpoint
	err error
}

func (e *sendError) Error() string { return fmt.Sprintf("%s %s: %v", e.op, e.to, e.err) }

func (e *sendError) Unwrap() error { return e.err }
