package trace

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/isa/programs"
	"repro/internal/isa/rv32"
)

// InstStream produces a workload's dynamic instruction stream lazily,
// in segments, instead of as one materialised slice. It is the only
// instruction generator: synthetic kernels replay their kernel round
// (synthRound) without end, and programs stream through the
// incremental RV32 executor, so only the instructions near the cursor
// ever exist in memory. This is what lifts MaxRecipeInsts for sampled
// runs: a sampled point's budget is bounded by MaxStreamInsts, not by
// what fits in one allocation.
//
// Prefix contract: Recipe{..., N}.Materialise() is the first N
// instructions of the recipe's stream (all of a program's), drained
// from the same source; TestStreamedMatchesMaterialised pins both to
// the same digests.
type InstStream struct {
	name string
	code *rv32.Image
	src  streamSource // nil once exhausted
	buf  []isa.Inst
	off  int   // consumed prefix of buf
	base int64 // absolute stream position of buf[off]
	// borrowed marks buf as a view of a materialised trace's storage:
	// never compact (compaction writes into the shared array).
	borrowed bool
}

// streamSource appends the next segment of the stream to dst. Returning
// dst unchanged signals exhaustion.
type streamSource interface {
	emit(dst []isa.Inst) ([]isa.Inst, error)
}

// Name returns the workload name (matches the materialised trace's).
func (s *InstStream) Name() string { return s.name }

// Code returns the static code image for program streams, nil otherwise.
func (s *InstStream) Code() *rv32.Image { return s.code }

// Pos returns the absolute stream position of the cursor: the number of
// instructions consumed by Skip so far.
func (s *InstStream) Pos() int64 { return s.base }

// Peek returns the next n instructions without consuming them (fewer
// only at end of stream). The returned slice aliases the stream's
// buffer and is valid until the next Peek/Skip/Window call.
func (s *InstStream) Peek(n int) ([]isa.Inst, error) {
	if s.off > 0 && !s.borrowed && s.off >= len(s.buf)-s.off {
		s.buf = s.buf[:copy(s.buf, s.buf[s.off:])]
		s.off = 0
	}
	for len(s.buf)-s.off < n && s.src != nil {
		if s.base+int64(len(s.buf)-s.off) > MaxStreamInsts {
			return nil, fmt.Errorf("trace: stream %s exceeds %d instructions", s.name, MaxStreamInsts)
		}
		before := len(s.buf)
		buf, err := s.src.emit(s.buf)
		if err != nil {
			return nil, err
		}
		s.buf = buf
		if len(s.buf) == before {
			s.src = nil
		}
	}
	if avail := len(s.buf) - s.off; n > avail {
		n = avail
	}
	return s.buf[s.off : s.off+n], nil
}

// Skip consumes n instructions; n must not exceed what Peek has shown
// to be available.
func (s *InstStream) Skip(n int) {
	if n < 0 || n > len(s.buf)-s.off {
		panic(fmt.Sprintf("trace: stream %s: skip %d beyond buffered %d", s.name, n, len(s.buf)-s.off))
	}
	s.off += n
	s.base += int64(n)
}

// Window copies the next n instructions (fewer at end of stream) into a
// materialised Trace without consuming them: the detailed-simulation
// view of one sampling window. The window trace carries the stream's
// name and static code, so window runs exercise the same BTB/wrong-path
// machinery as full runs.
func (s *InstStream) Window(n int) (*Trace, error) {
	w, err := s.Peek(n)
	if err != nil {
		return nil, err
	}
	return &Trace{name: s.name, insts: append([]isa.Inst(nil), w...), code: s.code}, nil
}

// OpenStream returns a stream over an already-materialised trace (a
// borrowed, zero-copy view; the trace must not be mutated, which Trace
// never is after construction).
func (t *Trace) OpenStream() *InstStream {
	return &InstStream{name: t.name, code: t.code, buf: t.insts, borrowed: true}
}

// OpenStream opens the recipe's dynamic stream at position zero.
// Synthetic streams are unbounded (the run's instruction budget decides
// how far to read); program streams end when the program halts.
func (r Recipe) OpenStream() (*InstStream, error) {
	if err := r.ValidateStreamed(); err != nil {
		return nil, err
	}
	src, code, err := r.source()
	if err != nil {
		return nil, err
	}
	return &InstStream{name: r.WorkloadName(), code: code, src: src}, nil
}

// source opens the recipe's instruction producer, plus the static code
// image for programs. It does not validate r.
func (r Recipe) source() (streamSource, *rv32.Image, error) {
	if r.Kernel != KernelProgram {
		round, err := synthRound(r)
		if err != nil {
			return nil, nil, err
		}
		return &synthSource{round: round}, nil, nil
	}
	spec, ok := programs.Lookup(r.Program)
	if !ok {
		return nil, nil, fmt.Errorf("trace: recipe: unknown program %q", r.Program)
	}
	p, err := spec.Build(r.Input, r.Seed)
	if err != nil {
		return nil, nil, fmt.Errorf("trace: recipe %s: %w", r, err)
	}
	st, err := rv32.NewStreamer(p)
	if err != nil {
		return nil, nil, fmt.Errorf("trace: recipe %s: %w", r, err)
	}
	img, err := rv32.NewImage(p)
	if err != nil {
		return nil, nil, fmt.Errorf("trace: recipe %s: %w", r, err)
	}
	return &programSource{st: st}, img, nil
}

// drain appends src's output to dst until dst holds n instructions or
// src ends, and cuts the result to at most n: the materialised prefix
// of a stream.
func drain(dst []isa.Inst, src streamSource, n int) ([]isa.Inst, error) {
	for len(dst) < n {
		before := len(dst)
		var err error
		if dst, err = src.emit(dst); err != nil {
			return nil, err
		}
		if len(dst) == before {
			break
		}
	}
	return dst[:min(len(dst), n)], nil
}

// synthSource emits one kernel iteration per call, cycling through the
// round.
type synthSource struct {
	round []iterSource
	next  int
}

func (s *synthSource) emit(dst []isa.Inst) ([]isa.Inst, error) {
	b := builder{insts: dst}
	s.round[s.next].emitIter(&b)
	s.next = (s.next + 1) % len(s.round)
	return b.insts, nil
}

type programSource struct {
	st *rv32.Streamer
}

func (p *programSource) emit(dst []isa.Inst) ([]isa.Inst, error) {
	if p.st.Halted() {
		return dst, nil
	}
	return p.st.Emit(dst)
}

// WalkWarm consumes the stream from the cursor — limit instructions, or
// to its end when limit is 0 — and visits its cache warm-up events in
// order: each instruction's IL1 line the first time the walk sees it,
// then the instruction's data access, if any. It is the one warm-up
// walk: Trace.WarmFootprint records it once per materialised trace, and
// sampled runs feed it straight into their hierarchy over a stream too
// long to materialise, so both warm from the same event sequence.
func (s *InstStream) WalkWarm(limit int64, visit func(WarmEvent)) error {
	seen := make(map[uint64]struct{})
	end := s.base + limit
	for limit == 0 || s.base < end {
		chunk := 8192
		if limit > 0 {
			chunk = int(min(end-s.base, int64(chunk)))
		}
		insts, err := s.Peek(chunk)
		if err != nil {
			return err
		}
		if len(insts) == 0 {
			break
		}
		for i := range insts {
			in := &insts[i]
			line := in.PC &^ (WarmLineBytes - 1)
			if _, ok := seen[line]; !ok {
				seen[line] = struct{}{}
				visit(WarmEvent{Addr: line, Fetch: true})
			}
			if in.Op.IsMem() {
				visit(WarmEvent{Addr: in.Addr})
			}
		}
		s.Skip(len(insts))
	}
	return nil
}
