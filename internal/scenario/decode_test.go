package scenario

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mustParse parses or fails the test.
func mustParse(t *testing.T, src string) *Spec {
	t.Helper()
	s, err := Parse("test.json", []byte(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return s
}

// specErr asserts err is a *Error and returns it.
func specErr(t *testing.T, err error) *Error {
	t.Helper()
	if err == nil {
		t.Fatal("expected an error")
	}
	var se *Error
	if !errors.As(err, &se) {
		t.Fatalf("error %v (%T) is not a *scenario.Error", err, err)
	}
	return se
}

const minimalDynamics = `{
  "apiVersion": "rrdps/v1",
  "kind": "Scenario",
  "metadata": { "name": "minimal" },
  "campaign": { "kind": "dynamics" }
}`

func TestParseAppliesDefaults(t *testing.T) {
	s := mustParse(t, minimalDynamics)
	c := s.Doc.Campaign
	if c.Sites != 2000 || *c.Seed != 1815 || c.Days != 42 || *c.ChurnBoost != 1 {
		t.Fatalf("dynamics defaults not applied: %+v", c)
	}
	if s.Doc.Resolver.Retries != 3 || !*s.Doc.Resolver.Hedge {
		t.Fatalf("resolver defaults not applied: %+v", s.Doc.Resolver)
	}
	if s.Hash == "" || len(s.Canonical) == 0 {
		t.Fatal("canonical form not computed")
	}

	r := mustParse(t, `{
  "apiVersion": "rrdps/v1",
  "kind": "Scenario",
  "metadata": { "name": "minimal-residual" },
  "campaign": { "kind": "residual" }
}`)
	rc := r.Doc.Campaign
	if rc.Weeks != 6 || *rc.WarmupDays != 28 || *rc.ChurnBoost != 8 {
		t.Fatalf("residual defaults not applied: %+v", rc)
	}
}

func TestParseRoundTripsCanonical(t *testing.T) {
	s := mustParse(t, minimalDynamics)
	again, err := Parse("canon.json", s.Canonical)
	if err != nil {
		t.Fatalf("re-parsing canonical form: %v", err)
	}
	if !bytes.Equal(again.Canonical, s.Canonical) {
		t.Errorf("canonical form is not a fixed point:\nfirst:\n%s\nsecond:\n%s", s.Canonical, again.Canonical)
	}
	if again.Hash != s.Hash {
		t.Errorf("hash changed across round trip: %s vs %s", s.Hash, again.Hash)
	}
}

func TestParseRejectsUnknownField(t *testing.T) {
	src := `{
  "apiVersion": "rrdps/v1",
  "kind": "Scenario",
  "metadata": { "name": "x" },
  "campaign": { "kind": "dynamics", "dayz": 10 }
}`
	se := specErr(t, func() error { _, err := Parse("bad.json", []byte(src)); return err }())
	if !strings.Contains(se.Msg, `unknown field "dayz"`) {
		t.Errorf("message %q does not name the field", se.Msg)
	}
	if se.Line != 5 {
		t.Errorf("error anchored to line %d, want 5", se.Line)
	}
}

// TestParseRejectsUnknownAPIVersion: any apiVersion but rrdps/v1 is
// rejected at the apiVersion line, naming the bad version and the
// supported one. rrdps/v1alpha1, the draft format whose conversion to v1
// was dropped, is one such version.
func TestParseRejectsUnknownAPIVersion(t *testing.T) {
	for _, version := range []string{"rrdps/v2", "rrdps/v1alpha1"} {
		src := `{
  "apiVersion": "` + version + `",
  "kind": "Scenario",
  "metadata": { "name": "x" },
  "campaign": { "kind": "dynamics" }
}`
		se := specErr(t, func() error { _, err := Parse("bad.json", []byte(src)); return err }())
		if !strings.Contains(se.Msg, `"`+version+`"`) || !strings.Contains(se.Msg, "(supported: "+APIVersionV1+")") {
			t.Errorf("message %q should name the bad version and the supported one", se.Msg)
		}
		if se.Line != 2 {
			t.Errorf("%s: error anchored to line %d, want 2 (the apiVersion line)", version, se.Line)
		}
	}
}

func TestParseSyntaxErrorIsLineAnchored(t *testing.T) {
	src := "{\n  \"apiVersion\": \"rrdps/v1\",\n  \"kind\" \"Scenario\"\n}"
	se := specErr(t, func() error { _, err := Parse("bad.json", []byte(src)); return err }())
	if se.Line != 3 {
		t.Errorf("syntax error anchored to line %d, want 3", se.Line)
	}
}

func TestParseTypeErrorIsLineAnchored(t *testing.T) {
	src := `{
  "apiVersion": "rrdps/v1",
  "kind": "Scenario",
  "metadata": { "name": "x" },
  "campaign": { "kind": "dynamics", "sites": "many" }
}`
	se := specErr(t, func() error { _, err := Parse("bad.json", []byte(src)); return err }())
	if se.Line != 5 {
		t.Errorf("type error anchored to line %d, want 5", se.Line)
	}
	if !strings.Contains(se.Msg, "sites") {
		t.Errorf("message %q does not name the field", se.Msg)
	}
}

func TestParseRejectsTrailingData(t *testing.T) {
	specErr(t, func() error { _, err := Parse("bad.json", []byte(minimalDynamics+"\n{}")); return err }())
}

func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // substring of the error message
	}{
		{"bad kind", `{"apiVersion":"rrdps/v1","kind":"Scen","metadata":{"name":"x"},"campaign":{"kind":"dynamics"}}`, `kind must be "Scenario"`},
		{"missing name", `{"apiVersion":"rrdps/v1","kind":"Scenario","metadata":{},"campaign":{"kind":"dynamics"}}`, "metadata.name is required"},
		{"bad name", `{"apiVersion":"rrdps/v1","kind":"Scenario","metadata":{"name":"Has Spaces"},"campaign":{"kind":"dynamics"}}`, "kebab-case"},
		{"bad campaign kind", `{"apiVersion":"rrdps/v1","kind":"Scenario","metadata":{"name":"x"},"campaign":{"kind":"both"}}`, "campaign.kind"},
		{"weeks on dynamics", `{"apiVersion":"rrdps/v1","kind":"Scenario","metadata":{"name":"x"},"campaign":{"kind":"dynamics","weeks":4}}`, "residual knob"},
		{"days on residual", `{"apiVersion":"rrdps/v1","kind":"Scenario","metadata":{"name":"x"},"campaign":{"kind":"residual","days":10}}`, "dynamics knob"},
		{"attack on dynamics", `{"apiVersion":"rrdps/v1","kind":"Scenario","metadata":{"name":"x"},"campaign":{"kind":"dynamics"},"attack":{"bots":1,"requestsPerBot":1,"amplification":1,"resolvers":1}}`, "attack requires a residual campaign"},
		{"negative boost", `{"apiVersion":"rrdps/v1","kind":"Scenario","metadata":{"name":"x"},"campaign":{"kind":"dynamics","churnBoost":-2}}`, "churnBoost must be positive"},
		{"zero-mult wave", `{"apiVersion":"rrdps/v1","kind":"Scenario","metadata":{"name":"x"},"campaign":{"kind":"dynamics"},"waves":[{"startDay":1,"days":2}]}`, "no multiplier"},
		{"zero-day wave", `{"apiVersion":"rrdps/v1","kind":"Scenario","metadata":{"name":"x"},"campaign":{"kind":"dynamics"},"waves":[{"startDay":1,"days":0,"leaveMult":2}]}`, "days must be positive"},
		{"empty rate limit", `{"apiVersion":"rrdps/v1","kind":"Scenario","metadata":{"name":"x"},"campaign":{"kind":"residual"},"world":{"nsRateLimit":{"windowHours":1}}}`, "perSource or capacity"},
		{"incapsula week range", `{"apiVersion":"rrdps/v1","kind":"Scenario","metadata":{"name":"x"},"campaign":{"kind":"residual","weeks":4,"incapsulaStartWeek":9}}`, "incapsulaStartWeek"},
		{"non-positive attack", `{"apiVersion":"rrdps/v1","kind":"Scenario","metadata":{"name":"x"},"campaign":{"kind":"residual"},"attack":{"bots":0,"requestsPerBot":1,"amplification":1,"resolvers":1}}`, "must all be positive"},
		{"attack week range", `{"apiVersion":"rrdps/v1","kind":"Scenario","metadata":{"name":"x"},"campaign":{"kind":"residual","weeks":4},"attack":{"bots":1,"requestsPerBot":1,"amplification":1,"resolvers":1,"startWeek":7}}`, "attack.startWeek"},
		{"bad rate", `{"apiVersion":"rrdps/v1","kind":"Scenario","metadata":{"name":"x"},"campaign":{"kind":"residual"},"world":{"notifiedLeaveRate":1.5}}`, "outside [0,1]"},
		{"bad fault rate", `{"apiVersion":"rrdps/v1","kind":"Scenario","metadata":{"name":"x"},"campaign":{"kind":"residual"},"faults":{"lossRate":1.2}}`, "outside [0,1)"},
		{"low retries", `{"apiVersion":"rrdps/v1","kind":"Scenario","metadata":{"name":"x"},"campaign":{"kind":"dynamics"},"resolver":{"retries":-1}}`, "retries"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse("case.json", []byte(tc.src))
			se := specErr(t, err)
			if !strings.Contains(se.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", se.Error(), tc.want)
			}
		})
	}
}

func TestValidationErrorAnchorsToFieldLine(t *testing.T) {
	src := `{
  "apiVersion": "rrdps/v1",
  "kind": "Scenario",
  "metadata": { "name": "x" },
  "campaign": {
    "kind": "dynamics",
    "churnBoost": -3
  }
}`
	_, err := Parse("anchored.json", []byte(src))
	se := specErr(t, err)
	if se.Line != 7 {
		t.Errorf("churnBoost error anchored to line %d, want 7", se.Line)
	}
	if got := se.Error(); !strings.HasPrefix(got, "anchored.json:7: ") {
		t.Errorf("rendered error %q lacks file:line prefix", got)
	}
}

// TestScenarioLibraryParses loads every shipped scenario file: the
// library must always be valid, and each file's metadata.name must match
// its file name.
func TestScenarioLibraryParses(t *testing.T) {
	dir := filepath.Join("..", "..", "scenarios")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading scenario library: %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("scenario library is empty")
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".json" {
			continue
		}
		s, err := Load(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Errorf("%s: %v", e.Name(), err)
			continue
		}
		if want := strings.TrimSuffix(e.Name(), ".json"); s.Name() != want {
			t.Errorf("%s: metadata.name %q != file name %q", e.Name(), s.Name(), want)
		}
		// Compilation of a valid spec must never panic.
		Compile(s)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("expected an error for a missing file")
	}
}
