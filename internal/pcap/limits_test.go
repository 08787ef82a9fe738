package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
	"time"
)

// hugeRecordCapture is a 44-byte classic capture whose global header
// declares a 4 GiB snaplen and whose only record header claims a 1 GiB
// captured length. A reader that sizes its buffer from the header before
// reading allocates the full gigabyte.
func hugeRecordCapture() []byte {
	b := make([]byte, globalHeaderLen+recordHeaderLen+4)
	binary.LittleEndian.PutUint32(b[0:], magicLE)
	binary.LittleEndian.PutUint16(b[4:], 2)
	binary.LittleEndian.PutUint16(b[6:], 4)
	binary.LittleEndian.PutUint32(b[16:], 0xFFFFFFFF)
	binary.LittleEndian.PutUint32(b[20:], LinkTypeEthernet)
	binary.LittleEndian.PutUint32(b[globalHeaderLen+8:], 1<<30)
	binary.LittleEndian.PutUint32(b[globalHeaderLen+12:], 1<<30)
	copy(b[globalHeaderLen+recordHeaderLen:], "abcd")
	return b
}

// hugeBlockCapture is a pcapng capture whose first block after the
// section and interface headers claims a 1 GiB total length.
func hugeBlockCapture() []byte {
	var buf bytes.Buffer
	if err := NewNGWriter(&buf).Flush(); err != nil {
		panic(err)
	}
	var head [8]byte
	binary.LittleEndian.PutUint32(head[0:], blockEPB)
	binary.LittleEndian.PutUint32(head[4:], 1<<30)
	buf.Write(head[:])
	buf.WriteString("abcd")
	return buf.Bytes()
}

// allocatedBytes reports the heap bytes fn allocates.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestOversizeRecordRejectedBeforeAllocation is the regression test for a
// 44-byte file forcing a 1 GiB allocation: a header-declared length above
// the format's limit is rejected with a named error before any buffer is
// sized from it.
func TestOversizeRecordRejectedBeforeAllocation(t *testing.T) {
	cases := []struct {
		name  string
		input []byte
		want  error
	}{
		{"classic record", hugeRecordCapture(), ErrRecordTooLarge},
		{"pcapng block", hugeBlockCapture(), ErrBlockTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			n := allocatedBytes(func() { _, err = ReadAllAuto(bytes.NewReader(tc.input)) })
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if n >= 1<<20 {
				t.Fatalf("rejecting a %d-byte capture allocated %d bytes, want < 1 MiB", len(tc.input), n)
			}
		})
	}
	if got := len(hugeRecordCapture()); got != 44 {
		t.Fatalf("classic probe is %d bytes, want 44", got)
	}
}

// TestLargeRecordsAccepted pins the boundaries: a classic record of
// exactly maxRecordLen bytes, and a pcapng packet larger than one chunk of
// shared packet buffer, both read back intact.
func TestLargeRecordsAccepted(t *testing.T) {
	atLimit := bytes.Repeat([]byte{0x5a}, maxRecordLen)
	var classic bytes.Buffer
	if err := NewWriter(&classic).WritePacket(Packet{Timestamp: baseTime, Data: atLimit}); err != nil {
		t.Fatal(err)
	}
	overChunk := bytes.Repeat([]byte{0xa5}, 2*chunkLen+3)
	var ng bytes.Buffer
	nw := NewNGWriter(&ng)
	for _, d := range [][]byte{{1, 2, 3}, overChunk, {4, 5}} {
		if err := nw.WritePacket(Packet{Timestamp: baseTime, Data: d}); err != nil {
			t.Fatal(err)
		}
	}
	pkts, err := ReadAll(&classic)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 1 || !bytes.Equal(pkts[0].Data, atLimit) {
		t.Fatal("classic record at the limit did not round-trip")
	}
	pkts, err = ReadAllAuto(&ng)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 3 || !bytes.Equal(pkts[0].Data, []byte{1, 2, 3}) ||
		!bytes.Equal(pkts[1].Data, overChunk) || !bytes.Equal(pkts[2].Data, []byte{4, 5}) {
		t.Fatal("pcapng packet larger than a chunk did not round-trip")
	}
}

// TestPacketDataIsolated pins the chunk-carving contract of both readers:
// packets read into a shared chunk each have cap == len, so appending to
// one packet's Data can never overwrite the next packet's bytes.
func TestPacketDataIsolated(t *testing.T) {
	want := []Packet{
		{Timestamp: baseTime, Data: []byte{1, 2, 3}},
		{Timestamp: baseTime.Add(time.Millisecond), Data: []byte{4, 5, 6, 7, 8}},
		{Timestamp: baseTime.Add(2 * time.Millisecond), Data: bytes.Repeat([]byte{9}, 64)},
	}
	var classic, ng bytes.Buffer
	cw, nw := NewWriter(&classic), NewNGWriter(&ng)
	for _, p := range want {
		if err := cw.WritePacket(p); err != nil {
			t.Fatal(err)
		}
		if err := nw.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	for name, input := range map[string][]byte{"classic": classic.Bytes(), "pcapng": ng.Bytes()} {
		got, err := ReadAllAuto(bytes.NewReader(input))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d packets, want %d", name, len(got), len(want))
		}
		for i := range got {
			if cap(got[i].Data) != len(got[i].Data) {
				t.Fatalf("%s: packet %d has cap %d > len %d", name, i, cap(got[i].Data), len(got[i].Data))
			}
			_ = append(got[i].Data, 0xee, 0xee, 0xee, 0xee)
		}
		for i := range got {
			if !bytes.Equal(got[i].Data, want[i].Data) {
				t.Fatalf("%s: packet %d = %x after appends to its neighbours, want %x", name, i, got[i].Data, want[i].Data)
			}
		}
	}
}
