package rv32

import (
	"fmt"

	"repro/internal/isa"
)

// Streamer functionally executes a program chunk by chunk, emitting its
// mapped pipeline stream (see microOp) without ever materialising
// it whole. It is the program-side producer of the trace layer's
// segment streams: materialised program traces drain it to the halt,
// and sampled runs read it window by window past the materialisation
// cap.
type Streamer struct {
	m       *Machine
	name    string
	ops     []isa.Inst // mapText(p): the micro-op skeleton of each text word
	emitted int
}

// NewStreamer prepares p for incremental execution.
func NewStreamer(p *Program) (*Streamer, error) {
	m, err := NewMachine(p)
	if err != nil {
		return nil, err
	}
	return &Streamer{m: m, name: p.Name, ops: mapText(p)}, nil
}

// Halted reports whether the program has run to completion; Emit
// appends nothing once it has.
func (s *Streamer) Halted() bool { return s.m.halted }

// Emit appends the mapped pipeline instructions of up to one execution
// chunk (a few thousand retired RV32 instructions) to dst and returns
// the extended slice, in retirement order.
func (s *Streamer) Emit(dst []isa.Inst) ([]isa.Inst, error) {
	const chunk = 4096
	before := len(dst)
	var r Retired
	for len(dst)-before < chunk && !s.m.halted {
		if err := s.m.step(&r); err != nil {
			return dst, err
		}
		var err error
		if dst, err = s.appendMapped(dst, &r); err != nil {
			return dst, fmt.Errorf("rv32: %q: %w", s.name, err)
		}
	}
	s.emitted += len(dst) - before
	if s.m.halted && s.emitted == 0 {
		return dst, fmt.Errorf("rv32: %q produced an empty stream", s.name)
	}
	return dst, nil
}
