package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzScenarioDecode throws arbitrary bytes at the spec parser. The
// contract under fuzz:
//
//  1. Parse never panics, whatever the input.
//  2. Anything Parse accepts, Compile lowers without panicking.
//  3. Accept -> canonicalize -> re-parse is a fixed point: the canonical
//     form re-parses to the same canonical bytes and hash. This is what
//     makes the hash a stable scenario identity.
func FuzzScenarioDecode(f *testing.F) {
	// Seed with the entire shipped scenario library, each file as
	// written and in its canonical form...
	dir := filepath.Join("..", "..", "scenarios")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatalf("reading scenario library: %v", err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".json" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		spec, err := Parse(e.Name(), data)
		if err != nil {
			f.Fatalf("library spec %s: %v", e.Name(), err)
		}
		f.Add(data)
		f.Add(spec.Canonical)
	}
	// ...and hand-broken variants covering each decoder path.
	for _, s := range []string{
		``,
		`{}`,
		`null`,
		`[1,2,3]`,
		`{"apiVersion":"rrdps/v1"`,
		`{"apiVersion":"rrdps/v9","kind":"Scenario"}`,
		`{"apiVersion":"rrdps/v1","kind":"Scenario","metadata":{"name":"x"},"campaign":{"kind":"dynamics","sites":"lots"}}`,
		`{"apiVersion":"rrdps/v1","kind":"Scenario","metadata":{"name":"x"},"campaign":{"kind":"dynamics"},"extra":1}`,
		`{"apiVersion":"rrdps/v1alpha1","kind":"Scenario","metadata":{"name":"x"},"campaign":{"kind":"dynamics"},"churnWaves":[{"day":-1,"length":0,"mult":-2}]}`,
		`{"apiVersion":"rrdps/v1","kind":"Scenario","metadata":{"name":"x"},"campaign":{"kind":"residual","weeks":1},"attack":{"bots":1,"requestsPerBot":1,"amplification":1,"resolvers":1,"startWeek":99}}`,
		minimalDynamics + "{}",
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Parse("fuzz.json", data)
		if err != nil {
			return // rejection is fine; panicking is not
		}
		comp := Compile(spec)
		if comp.Info == nil || comp.Info.Hash != spec.Hash {
			t.Fatal("compiled provenance does not carry the spec hash")
		}
		again, err := Parse("canonical.json", spec.Canonical)
		if err != nil {
			t.Fatalf("canonical form of an accepted spec failed to re-parse: %v\ncanonical:\n%s", err, spec.Canonical)
		}
		if !bytes.Equal(again.Canonical, spec.Canonical) {
			t.Fatalf("canonical form is not a fixed point:\nfirst:\n%s\nsecond:\n%s", spec.Canonical, again.Canonical)
		}
		if again.Hash != spec.Hash {
			t.Fatalf("hash not stable across canonical round trip: %s vs %s", spec.Hash, again.Hash)
		}
	})
}
