package rv32_test

import (
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/isa/programs"
	"repro/internal/isa/rv32"
)

// BenchmarkStreamerEmit measures the functional tier alone: hashjoin
// sized for a 1M-instruction stream, executed and mapped chunk by chunk
// through Streamer.Emit into a reused buffer (the way a trace stream
// consumes it). Reports mapped pipeline instructions per second.
func BenchmarkStreamerEmit(b *testing.B) {
	const budget = 1_000_000
	spec, ok := programs.Lookup("hashjoin")
	if !ok {
		b.Fatal("hashjoin not registered")
	}
	p, err := spec.Build(spec.InputFor(budget), 42)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]isa.Inst, 0, 8192)
	var insts int
	b.ReportAllocs()
	b.ResetTimer()
	t0 := time.Now()
	for i := 0; i < b.N; i++ {
		st, err := rv32.NewStreamer(p)
		if err != nil {
			b.Fatal(err)
		}
		for !st.Halted() {
			if buf, err = st.Emit(buf[:0]); err != nil {
				b.Fatal(err)
			}
			insts += len(buf)
		}
	}
	b.ReportMetric(float64(insts)/time.Since(t0).Seconds()/1000, "kinst/s")
}
