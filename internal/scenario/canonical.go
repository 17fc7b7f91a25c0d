package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/machine"
	"repro/internal/webserver"
	"repro/internal/workload"
)

// This file defines the scenario spec's canonical serialization — the
// content address the service daemon's result cache keys by. Two JSON specs
// that compile to identical fleets must canonicalise to identical bytes, so
// the canonical form (a) makes every documented default explicit and (b)
// emits JSON keys in sorted order regardless of Go struct layout. Hash
// stability across input field-order permutations and default spellings is
// pinned by canonical_test.go.

// Normalize returns a copy of the spec with every documented default made
// explicit: the violation threshold, the DTM policy kind, fan factor,
// ambient, core/SMT topology, per-component thread counts, power factors and
// arrival patterns, webserver sizing, and the scheduler block's policy and
// round length. Fields whose resolution depends on the caller's engine (the
// integrator) are left as declared; callers that cache across integrator
// settings must fold the engine's integrator into their key separately, as
// the service daemon does.
func (s *Spec) Normalize() *Spec {
	c := s.Clone()
	def := machine.DefaultConfig()
	if c.ViolationC == 0 {
		c.ViolationC = DefaultViolationC
	}
	if c.Policy.Kind == "" {
		c.Policy.Kind = PolicyNone
	}
	if c.Machine.FanFactor == 0 {
		c.Machine.FanFactor = def.FanFactor
	}
	if c.Machine.AmbientC == 0 {
		c.Machine.AmbientC = float64(def.Ambient)
	}
	if c.Machine.Cores == 0 {
		c.Machine.Cores = def.Model.NumCores
	}
	if c.Machine.SMTContexts <= 1 {
		c.Machine.SMTContexts = def.SMTContexts
	}
	schedCores := c.Machine.Cores * c.Machine.SMTContexts
	webDef := webserver.DefaultConfig()
	for i := range c.Workload {
		w := &c.Workload[i]
		if w.Arrival.Pattern == "" {
			w.Arrival.Pattern = ArrivalSteady
		}
		switch w.Kind {
		case KindWebserver:
			if w.Connections == 0 {
				w.Connections = webDef.Connections
			}
			if w.Workers == 0 {
				w.Workers = webDef.Workers
			}
			continue // webserver sizes itself; Threads/PowerFactor unused
		case KindSpec:
			if w.PowerFactor == 0 {
				if spec, err := workload.FindSpec(w.Benchmark); err == nil {
					w.PowerFactor = spec.PowerFactor
				}
			}
		default:
			if w.PowerFactor == 0 {
				w.PowerFactor = 1
			}
		}
		if w.Threads == 0 {
			w.Threads = schedCores
		}
	}
	if c.Scheduler != nil {
		ss := c.Scheduler
		if ss.Policy == "" {
			ss.Policy = PlaceCoolestFirst
		}
		if ss.RoundS == 0 {
			ss.RoundS = DefaultRoundS
		}
		for i := range ss.Jobs {
			j := &ss.Jobs[i]
			if j.Threads == 0 {
				j.Threads = 1
			}
			if j.PowerFactor == 0 {
				j.PowerFactor = 1
			}
			if j.Arrival.Pattern == "" {
				j.Arrival.Pattern = ArrivalSteady
			}
		}
		if ss.Migration.Enabled {
			if ss.Migration.TriggerC == 0 {
				ss.Migration.TriggerC = c.ViolationC
			}
			if ss.Migration.MaxMovesPerRound == 0 {
				ss.Migration.MaxMovesPerRound = 1
			}
		}
	}
	return c
}

// Canonical returns the spec's canonical serialization: the Normalize form
// marshalled as compact JSON with every object's keys in sorted order. The
// result is a pure function of the simulation the spec describes — input
// field ordering and omitted-default spellings do not change it.
func (s *Spec) Canonical() ([]byte, error) {
	raw, err := json.Marshal(s.Normalize())
	if err != nil {
		return nil, fmt.Errorf("scenario: canonicalising %q: %w", s.Name, err)
	}
	// Round-trip through a generic tree to sort keys; UseNumber keeps the
	// numeric literals exactly as Go's encoder produced them.
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("scenario: canonicalising %q: %w", s.Name, err)
	}
	var b bytes.Buffer
	writeCanonical(&b, v)
	return b.Bytes(), nil
}

// Hash returns the hex SHA-256 of the canonical serialization — the
// scenario's content address.
func (s *Spec) Hash() (string, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(c)
	return hex.EncodeToString(sum[:]), nil
}

// writeCanonical emits one JSON value with sorted object keys and no
// insignificant whitespace.
func writeCanonical(b *bytes.Buffer, v any) {
	switch t := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			kb, _ := json.Marshal(k)
			b.Write(kb)
			b.WriteByte(':')
			writeCanonical(b, t[k])
		}
		b.WriteByte('}')
	case []any:
		b.WriteByte('[')
		for i, e := range t {
			if i > 0 {
				b.WriteByte(',')
			}
			writeCanonical(b, e)
		}
		b.WriteByte(']')
	case json.Number:
		b.WriteString(string(t))
	default:
		eb, _ := json.Marshal(t)
		b.Write(eb)
	}
}
