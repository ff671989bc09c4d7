package machine

import (
	"encoding/json"
	"fmt"
	"io"
)

// Load parses a machine spec from JSON (the format Save writes; see
// README's -config quick-start). Unknown fields are rejected so a typo'd
// parameter cannot silently fall back to a default, and the spec must pass
// Validate.
func Load(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("machine: parsing spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, fmt.Errorf("machine: invalid spec: %w", err)
	}
	return s, nil
}

// Save serialises the spec as indented JSON, the format Load reads. The
// round trip is exact: Load(Save(s)) yields a spec with the same Hash.
func Save(w io.Writer, s Spec) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("machine: writing spec: %w", err)
	}
	return nil
}
