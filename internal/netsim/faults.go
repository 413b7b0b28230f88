package netsim

import "time"

// FaultConfig describes the deterministic fault-injection plan of a
// Network: seeded uniform loss, fabric-wide burst-loss windows,
// per-endpoint flakiness windows, and reply corruption. It is the
// fabric's only loss model.
//
// Every decision is a pure function of (Seed, destination endpoint,
// payload bytes, simulation-time window) — no shared RNG state — so the
// injected fault pattern is independent of the order concurrent senders
// hit the fabric. Two runs that issue the same set of (endpoint, payload)
// sends observe the same set of outcomes whether they run serially or
// over a worker pool; this is what lets the retry layer above keep the
// ParallelMatchesSerial guarantee even on a lossy fabric, and what lets a
// resumed campaign replay the faults an uninterrupted one saw without
// checkpointing any RNG state.
//
// A retry with a fresh query ID changes the payload and therefore re-rolls
// every decision, which is exactly how real retries escape real loss.
type FaultConfig struct {
	// Seed drives every decision. Two configs differing only in Seed
	// produce unrelated fault patterns.
	Seed int64

	// LossRate is the probability in [0,1) that a given (endpoint,
	// payload) send is dropped. The decision is deterministic per send
	// content, not sampled in arrival order.
	LossRate float64

	// BurstRate is the probability that any given BurstWindow-sized slice
	// of simulation time is a loss burst; during a burst every send is
	// additionally dropped with probability BurstLoss. Bursts model the
	// short outages and congestion events a weeks-long measurement rides
	// through. Because the simulated clock does not advance while a
	// measurement pass runs, a burst covers whole passes; BurstLoss should
	// therefore stay below 1 so retries (fresh payloads) can escape it.
	BurstRate   float64
	BurstWindow time.Duration // default 6h when BurstRate > 0
	BurstLoss   float64       // default 0.75 when BurstRate > 0

	// FlakyRate is the fraction of endpoints that are flaky. A flaky
	// endpoint alternates (pseudo-randomly, per FlakyWindow slice of sim
	// time) between healthy windows and bad windows during which its sends
	// are dropped with probability FlakyLoss. This is the per-endpoint
	// degradation that the resolver's health tracker exists to sideline.
	FlakyRate   float64
	FlakyLoss   float64       // default 0.9 when FlakyRate > 0
	FlakyWindow time.Duration // default 12h when FlakyRate > 0

	// CorruptRate is the probability that a delivered reply is corrupted
	// in flight: it arrives truncated below a full DNS header, so the
	// client observes a wire-decode failure. Decode failure is guaranteed
	// (rather than, say, flipping one payload byte) so the fault is always
	// distinguishable from a validation failure: corrupt replies are
	// retryable, ID/question mismatches are not.
	CorruptRate float64
}

// Enabled reports whether the config injects anything at all.
func (fc FaultConfig) Enabled() bool {
	return fc.LossRate > 0 || fc.BurstRate > 0 || fc.FlakyRate > 0 || fc.CorruptRate > 0
}

// withDefaults fills the window/intensity defaults.
func (fc FaultConfig) withDefaults() FaultConfig {
	if fc.BurstRate > 0 {
		if fc.BurstWindow <= 0 {
			fc.BurstWindow = 6 * time.Hour
		}
		if fc.BurstLoss <= 0 {
			fc.BurstLoss = 0.75
		}
	}
	if fc.FlakyRate > 0 {
		if fc.FlakyLoss <= 0 {
			fc.FlakyLoss = 0.9
		}
		if fc.FlakyWindow <= 0 {
			fc.FlakyWindow = 12 * time.Hour
		}
	}
	return fc
}

// Salts keep the per-cause hash streams independent: reusing one stream
// for two decisions would correlate them (e.g. every burst-dropped send
// would also be uniform-dropped at the same rate threshold).
const (
	saltUniform = iota + 1
	saltBurstWindow
	saltBurstDrop
	saltFlakyEndpoint
	saltFlakyWindow
	saltFlakyDrop
	saltCorrupt
)

// faultHash folds the seed, a salt, the endpoint, an extra discriminator
// (e.g. a window index) and the payload into a 64-bit FNV-1a hash, then
// finalizes it with an avalanche mix. The mix matters: raw FNV-1a spreads
// a trailing-byte difference only into the low ~40 bits, while unit()
// keeps the high bits — without finalization, two payloads differing only
// near the end (a DNS query's qtype, say) would get correlated fault
// decisions.
func faultHash(seed int64, salt uint64, ep Endpoint, extra uint64, payload []byte) uint64 {
	h := fnvWord(fnvOffset64, uint64(seed))
	h = fnvWord(h, salt)
	if ep.Addr.IsValid() {
		for _, b := range ep.Addr.As4() {
			h = fnvByte(h, b)
		}
	}
	h = fnvWord(h, uint64(ep.Port))
	h = fnvWord(h, extra)
	for _, b := range payload {
		h = fnvByte(h, b)
	}
	return mix64(h)
}

// FNV-1a, inlined: hash/fnv's Hash64 would cost an interface call per
// written slice on the per-send path.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

// fnvWord folds v's eight little-endian bytes into h.
func fnvWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v>>(8*i)))
	}
	return h
}

// mix64 is the splitmix64 finalizer: every input bit avalanches into every
// output bit.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// unit maps a hash to [0,1).
func unit(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}

// faultOutcome is the decision for one send.
type faultOutcome struct {
	drop    bool
	cause   int // salt of the cause when drop
	corrupt bool
}

// decide evaluates the plan for one send. Pure function; callers hold no
// lock while computing it.
func (fc FaultConfig) decide(now time.Time, to Endpoint, payload []byte) faultOutcome {
	if fc.LossRate > 0 && unit(faultHash(fc.Seed, saltUniform, to, 0, payload)) < fc.LossRate {
		return faultOutcome{drop: true, cause: saltUniform}
	}
	if fc.BurstRate > 0 {
		win := uint64(now.UnixNano() / int64(fc.BurstWindow))
		if unit(faultHash(fc.Seed, saltBurstWindow, Endpoint{}, win, nil)) < fc.BurstRate &&
			unit(faultHash(fc.Seed, saltBurstDrop, to, win, payload)) < fc.BurstLoss {
			return faultOutcome{drop: true, cause: saltBurstDrop}
		}
	}
	if fc.FlakyRate > 0 && unit(faultHash(fc.Seed, saltFlakyEndpoint, to, 0, nil)) < fc.FlakyRate {
		win := uint64(now.UnixNano() / int64(fc.FlakyWindow))
		if unit(faultHash(fc.Seed, saltFlakyWindow, to, win, nil)) < 0.5 &&
			unit(faultHash(fc.Seed, saltFlakyDrop, to, win, payload)) < fc.FlakyLoss {
			return faultOutcome{drop: true, cause: saltFlakyDrop}
		}
	}
	if fc.CorruptRate > 0 && unit(faultHash(fc.Seed, saltCorrupt, to, 0, payload)) < fc.CorruptRate {
		return faultOutcome{corrupt: true}
	}
	return faultOutcome{}
}

// SetFaults installs (or, with a zero config, removes) a deterministic
// fault plan. Safe to call between measurement passes; the plan applies
// to every subsequent Send.
func (n *Network) SetFaults(fc FaultConfig) {
	fc = fc.withDefaults()
	n.faults.Store(&fc)
}
