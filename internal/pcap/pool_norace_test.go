//go:build !race

package pcap

import "testing"

// This file holds the assertions that need a sync.Pool which keeps what it
// is given: race builds drop pooled items at random on purpose.

// TestPooledReassemblyAllocs pins the steady-state zero-alloc contract of
// the pooled reassembly path: once the pooled assembler's arenas are warm,
// decoding + feeding + stream carving for a whole capture (including
// out-of-order and duplicate segments) allocates nothing.
func TestPooledReassemblyAllocs(t *testing.T) {
	pkts := allocProbePackets(t)

	var dst []*Stream
	run := func() {
		streams, asm := AssembleStreamsInto(dst[:0], pkts)
		dst = streams[:0]
		if len(streams) != 1 || len(streams[0].Data) == 0 {
			panic("pooled reassembly produced wrong streams")
		}
		asm.Release()
	}
	run() // warm the pool and arenas
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("pooled reassembly allocates %.1f times per capture in steady state, want 0", allocs)
	}
}
