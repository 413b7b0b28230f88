package snapstore

import "rrdps/internal/dnsmsg"

// NameID is the interned handle of a dnsmsg.Name. IDs are dense and
// allocated in first-seen order, so a store built from a deterministic
// collection pass assigns deterministic IDs.
type NameID uint32

// Interner deduplicates dnsmsg.Names into NameIDs. A six-week campaign
// over N domains sees each CNAME target and nameserver hostname thousands
// of times; interning stores each distinct string once and lets records
// hold 4-byte handles instead of string headers.
//
// The table only grows: it is bounded by the number of distinct names the
// world can produce, not by campaign length, which is exactly the
// trade-off an append-only snapshot store wants.
type Interner struct {
	ids   map[dnsmsg.Name]NameID
	names []dnsmsg.Name
}

// NewInterner creates an empty interner.
func NewInterner() *Interner {
	return &Interner{ids: make(map[dnsmsg.Name]NameID)}
}

// Intern returns the ID for n, allocating one on first sight.
func (in *Interner) Intern(n dnsmsg.Name) NameID {
	if id, ok := in.ids[n]; ok {
		return id
	}
	id := NameID(len(in.names))
	in.ids[n] = id
	in.names = append(in.names, n)
	return id
}

// Len returns the number of distinct interned names.
func (in *Interner) Len() int { return len(in.names) }

// internAll interns a name slice, returning nil for nil input so record
// equality survives the round trip ([]NameID(nil) vs empty).
func (in *Interner) internAll(names []dnsmsg.Name) []NameID {
	if names == nil {
		return nil
	}
	out := make([]NameID, len(names))
	for i, n := range names {
		out[i] = in.Intern(n)
	}
	return out
}

// resolveAll maps IDs back to names, returning nil for nil input.
func (in *Interner) resolveAll(ids []NameID) []dnsmsg.Name {
	if ids == nil {
		return nil
	}
	out := make([]dnsmsg.Name, len(ids))
	for i, id := range ids {
		out[i] = in.names[id]
	}
	return out
}
