package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
)

// Error is a spec problem anchored to a source line, so a broken
// scenario file reads like a compiler diagnostic:
//
//	scenarios/broken.json:14: campaign.churnBoost must be positive (got -2)
type Error struct {
	// File is the spec path ("scenario" for in-memory parses).
	File string
	// Line is the 1-based source line, 0 when no anchor was found.
	Line int
	// Msg describes the problem.
	Msg string
}

func (e *Error) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg)
	}
	return fmt.Sprintf("%s: %s", e.File, e.Msg)
}

// Load reads and parses a scenario spec file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return Parse(path, data)
}

// Parse decodes a scenario document, applies defaults, validates, and
// computes the canonical form and hash. file names the source in error
// messages; pass "" for in-memory data.
func Parse(file string, data []byte) (*Spec, error) {
	if file == "" {
		file = "scenario"
	}
	// Peek the version with a lenient decode so an unsupported version is
	// named as such, even when the rest of the document would not survive
	// strict decoding against the v1 schema.
	var head struct {
		APIVersion string `json:"apiVersion"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return nil, decodeError(file, data, err)
	}
	if head.APIVersion != APIVersionV1 {
		return nil, &Error{
			File: file,
			Line: fieldLine(data, "", "apiVersion"),
			Msg: fmt.Sprintf("unsupported apiVersion %q (supported: %s)",
				head.APIVersion, APIVersionV1),
		}
	}
	var doc V1
	if err := strictDecode(data, &doc); err != nil {
		return nil, decodeError(file, data, err)
	}

	doc.normalize()
	anchor := func(section, key string) int { return fieldLine(data, section, key) }
	if err := doc.validate(anchor, file); err != nil {
		return nil, err
	}
	canonical, hash := canonicalize(doc)
	return &Spec{Doc: doc, Canonical: canonical, Hash: hash}, nil
}

// strictDecode unmarshals data into v rejecting unknown fields and
// trailing garbage.
func strictDecode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// A spec is one document; a second value means the file is not what
	// the author thinks it is.
	if dec.More() {
		return errors.New("trailing data after the scenario document")
	}
	return nil
}

// decodeError converts an encoding/json error into a line-anchored
// *Error. Syntax and type errors carry byte offsets; unknown-field
// errors only carry the field name, which we locate in the raw bytes.
func decodeError(file string, data []byte, err error) error {
	var syn *json.SyntaxError
	if errors.As(err, &syn) {
		line, col := lineCol(data, syn.Offset)
		return &Error{File: file, Line: line, Msg: fmt.Sprintf("column %d: %v", col, syn)}
	}
	var typ *json.UnmarshalTypeError
	if errors.As(err, &typ) {
		line, _ := lineCol(data, typ.Offset)
		field := typ.Field
		if field == "" {
			field = "document"
		}
		return &Error{File: file, Line: line, Msg: fmt.Sprintf("%s: cannot decode %s as %s", field, typ.Value, typ.Type)}
	}
	// encoding/json has no exported type for unknown-field errors; the
	// message is `json: unknown field "foo"`.
	if msg := err.Error(); strings.HasPrefix(msg, "json: unknown field ") {
		field := strings.Trim(strings.TrimPrefix(msg, "json: unknown field "), `"`)
		return &Error{File: file, Line: fieldLine(data, "", field), Msg: fmt.Sprintf("unknown field %q", field)}
	}
	return &Error{File: file, Msg: err.Error()}
}

// lineCol converts a byte offset into 1-based line and column numbers.
func lineCol(data []byte, offset int64) (line, col int) {
	if offset > int64(len(data)) {
		offset = int64(len(data))
	}
	prefix := data[:offset]
	line = 1 + bytes.Count(prefix, []byte{'\n'})
	if i := bytes.LastIndexByte(prefix, '\n'); i >= 0 {
		col = int(offset) - i
	} else {
		col = int(offset) + 1
	}
	return line, col
}

// fieldLine finds the 1-based line of the first `"key"` occurrence at or
// after the first `"section"` occurrence (empty section = whole file),
// for anchoring semantic errors whose JSON position encoding/json does
// not report. Returns 0 when the key is absent (e.g. the error is about
// a missing field), which renders without a line number.
func fieldLine(data []byte, section, key string) int {
	start := 0
	if section != "" {
		if i := bytes.Index(data, []byte(`"`+section+`"`)); i >= 0 {
			start = i
		}
	}
	i := bytes.Index(data[start:], []byte(`"`+key+`"`))
	if i < 0 {
		// Fall back to the section itself so the error still points near
		// the problem.
		if section != "" {
			if j := bytes.Index(data, []byte(`"`+section+`"`)); j >= 0 {
				line, _ := lineCol(data, int64(j))
				return line
			}
		}
		return 0
	}
	line, _ := lineCol(data, int64(start+i))
	return line
}
